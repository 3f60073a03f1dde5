package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSuiteJSONRoundTrip is the suite-file contract: dumping any built-in
// suite and loading it back must expand to the identical scenario list
// (cells, indices, seeds — everything the engine consumes).
func TestSuiteJSONRoundTrip(t *testing.T) {
	for _, orig := range Builtin() {
		data, err := DumpSuite(orig)
		if err != nil {
			t.Fatalf("%s: dump: %v", orig.Name, err)
		}
		loaded, err := ParseSuite(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", orig.Name, err)
		}
		if !reflect.DeepEqual(loaded, orig.withDefaults()) {
			t.Errorf("%s: round-trip suite differs:\ngot  %+v\nwant %+v",
				orig.Name, loaded, orig.withDefaults())
		}
		if !reflect.DeepEqual(loaded.Cells(), orig.Cells()) {
			t.Errorf("%s: round-trip cell expansion differs", orig.Name)
		}
		if loaded.Fingerprint() != orig.Fingerprint() {
			t.Errorf("%s: round-trip fingerprint %s != %s",
				orig.Name, loaded.Fingerprint(), orig.Fingerprint())
		}
		// A second dump is byte-identical (defaults are idempotent).
		again, err := DumpSuite(loaded)
		if err != nil {
			t.Fatalf("%s: re-dump: %v", orig.Name, err)
		}
		if string(again) != string(data) {
			t.Errorf("%s: re-dump differs from dump", orig.Name)
		}
	}
}

func TestLoadSuiteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "suite.json")
	data, err := DumpSuite(Builtin()[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSuiteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != Builtin()[0].Name {
		t.Errorf("loaded suite %q", s.Name)
	}
	if _, err := LoadSuiteFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestParseSuiteRejections(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"version": 1, "name": "x"`,
		"missing version": `{"name": "x"}`,
		"future version":  `{"version": 99, "name": "x"}`,
		"missing name":    `{"version": 1}`,
		"unknown field":   `{"version": 1, "name": "x", "atackRates": [0.1]}`,
		"invalid axis":    `{"version": 1, "name": "x", "attackRates": [1.5]}`,
		"bad policy":      `{"version": 1, "name": "x", "policies": ["NOPE"]}`,
		"v1 w/ backends":  `{"version": 1, "name": "x", "backends": ["cluster"]}`,
		"bad backend":     `{"version": 2, "name": "x", "backends": ["NOPE"]}`,
	}
	for label, src := range cases {
		if _, err := ParseSuite([]byte(src)); err == nil {
			t.Errorf("%s: expected error", label)
		}
	}
	// The minimal valid file: version + name; everything else defaults.
	s, err := ParseSuite([]byte(`{"version": 1, "name": "minimal"}`))
	if err != nil {
		t.Fatalf("minimal suite: %v", err)
	}
	if got, want := s.withDefaults().NumScenarios(), (Suite{}).withDefaults().NumScenarios(); got != want {
		t.Errorf("minimal suite expands to %d scenarios, want default %d", got, want)
	}
}

// TestSuiteFileVersioning pins the two-version scheme: version-1 files
// (implicitly emulation) parse under both stamps, the backends axis
// requires version 2, and DumpSuite stamps the oldest version able to
// express the suite so pre-backend dumps are byte-identical across the
// schema bump.
func TestSuiteFileVersioning(t *testing.T) {
	// A version-2 stamp on a backend-free suite is accepted: version 2 is
	// a superset of version 1.
	if _, err := ParseSuite([]byte(`{"version": 2, "name": "x"}`)); err != nil {
		t.Errorf("backend-free version-2 file rejected: %v", err)
	}
	s, err := ParseSuite([]byte(`{"version": 2, "name": "x", "backends": ["cluster"]}`))
	if err != nil {
		t.Fatalf("version-2 backends file rejected: %v", err)
	}
	if len(s.Backends) != 1 || s.Backends[0] != BackendCluster {
		t.Errorf("parsed backends = %v", s.Backends)
	}

	v1, err := DumpSuite(Suite{Name: "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(v1), `"version": 1`) {
		t.Errorf("backend-free dump not stamped version 1:\n%s", v1)
	}
	v2, err := DumpSuite(Suite{Name: "live", Backends: []string{BackendCluster}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(v2), `"version": 2`) || !strings.Contains(string(v2), `"backends"`) {
		t.Errorf("backends dump not stamped version 2:\n%s", v2)
	}
}

// TestSuiteFingerprint: equal grids agree, any axis or override change
// disagrees — the property resume and merge rely on to refuse mixing
// records across grids.
func TestSuiteFingerprint(t *testing.T) {
	a := Builtin()[0]
	if a.Fingerprint() != Builtin()[0].Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	// Defaulting must not change the fingerprint (the CLI fingerprints the
	// overridden-but-not-yet-defaulted suite).
	if a.Fingerprint() != a.withDefaults().Fingerprint() {
		t.Error("defaulting changed the fingerprint")
	}
	mutations := []func(*Suite){
		func(s *Suite) { s.Seed++ },
		func(s *Suite) { s.Steps++ },
		func(s *Suite) { s.SeedsPerCell++ },
		func(s *Suite) { s.AttackRates = append(s.AttackRates, 0.2) },
		func(s *Suite) { s.Policies = []PolicyKind{PolicyPeriodic} },
		func(s *Suite) { s.Backends = []string{BackendCluster} },
	}
	// An axis that only spells out the default backend is the same grid:
	// its fingerprint canonicalizes to the axis-free one, so pre-backend
	// checkpoints keep resuming against explicitly-emulation suites.
	explicit := a
	explicit.Backends = []string{BackendEmulation}
	if explicit.Fingerprint() != a.Fingerprint() {
		t.Error("explicit emulation backend changed the fingerprint")
	}
	for i, mutate := range mutations {
		m := a
		// Deep-enough copy for the slices the mutations touch.
		m.AttackRates = append([]float64(nil), a.AttackRates...)
		mutate(&m)
		if m.Fingerprint() == a.Fingerprint() {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
	}
}

func TestDumpSuiteInvalid(t *testing.T) {
	bad := Suite{Name: "bad", AttackRates: []float64{2}}
	if _, err := DumpSuite(bad); err == nil || !strings.Contains(err.Error(), "attack rate") {
		t.Errorf("dump of invalid suite: %v", err)
	}
}

// FuzzParseSuite: the suite parser never panics, and a document it accepts
// dumps and re-parses to the same grid — the same Fingerprint and the same
// dump bytes — so a file written by -dump-suite always reads back as what
// was dumped.
func FuzzParseSuite(f *testing.F) {
	for _, s := range Builtin() {
		data, err := DumpSuite(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version": 1, "name": "minimal"}`))
	f.Add([]byte(`{"version": 2, "name": "x", "backends": ["emulation"], "learned": {"workers": 3}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSuite(data)
		if err != nil {
			return
		}
		dump, err := DumpSuite(s)
		if err != nil {
			t.Fatalf("accepted suite does not dump: %v\n%s", err, data)
		}
		back, err := ParseSuite(dump)
		if err != nil {
			t.Fatalf("dump does not re-parse: %v\n%s", err, dump)
		}
		if back.Fingerprint() != s.Fingerprint() {
			t.Fatalf("fingerprint %s after the round trip, %s before\n%s", back.Fingerprint(), s.Fingerprint(), dump)
		}
		if again, err := DumpSuite(back); err != nil || !bytes.Equal(again, dump) {
			t.Fatalf("second dump differs (%v):\n%s\nfirst:\n%s", err, again, dump)
		}
	})
}
