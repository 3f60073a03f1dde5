package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHandlerMetrics(t *testing.T) {
	c := New()
	c.Counter("fleet.scenarios_folded").Add(42)
	c.Gauge("fleet.workers").Set(8)
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics content type %q", ct)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("fleet.scenarios_folded"); got != 42 {
		t.Errorf("folded = %d, want 42", got)
	}
	if got := snap.Gauges["fleet.workers"]; got != 8 {
		t.Errorf("workers gauge = %v, want 8", got)
	}
}

func TestHandlerExpvarAndPprof(t *testing.T) {
	c := New()
	c.Counter("test.count").Inc()
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vars["telemetry"]; !ok {
		t.Error("/debug/vars missing the telemetry var")
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}
}

// TestHandlerRebindsExpvar: the expvar registry is process-global, so
// serving a second collector must rebind the published var to it.
func TestHandlerRebindsExpvar(t *testing.T) {
	c1 := New()
	c1.Counter("rebind.count").Add(1)
	Handler(c1)
	c2 := New()
	c2.Counter("rebind.count").Add(2)
	srv := httptest.NewServer(Handler(c2))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Telemetry Snapshot `json:"telemetry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if got := vars.Telemetry.Counter("rebind.count"); got != 2 {
		t.Errorf("expvar telemetry reads collector with count %d, want 2 (latest served)", got)
	}
}

func TestServeAndClose(t *testing.T) {
	c := New()
	srv, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Error("endpoint still reachable after Close")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	c := New()
	c.Counter("fleet.scenarios_folded").Add(16)
	end := c.Phase("fleet.run")
	end()

	m := NewManifest()
	m.Suite = "test"
	m.Fingerprint = "abc123"
	m.Seed = 7
	m.Shard = "0/2"
	m.Scenarios = 16
	m.Workers = 4
	m.Finish(c)

	if m.GoVersion == "" {
		t.Error("manifest missing Go version")
	}
	if m.WallSeconds < 0 || m.End.Before(m.Start) {
		t.Errorf("bad wall clock: start %v end %v", m.Start, m.End)
	}

	path := filepath.Join(t.TempDir(), "run.manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest does not round-trip: %v", err)
	}
	if back.Suite != "test" || back.Seed != 7 || back.Shard != "0/2" {
		t.Errorf("round-trip mismatch: %+v", back)
	}
	// The reconciliation contract: the folded counter equals Scenarios.
	if got := back.Telemetry.Counter("fleet.scenarios_folded"); int(got) != back.Scenarios {
		t.Errorf("fleet.scenarios_folded = %d, Scenarios = %d; must reconcile", got, back.Scenarios)
	}
	if strings.Contains(string(data), ".tmp") {
		t.Error("temp artifact leaked into manifest")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
}
