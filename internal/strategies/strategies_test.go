package strategies

import (
	"context"
	"errors"
	"sort"
	"testing"

	"tolerance/internal/baselines"
	"tolerance/internal/nodemodel"
)

func defaultSpec() Spec {
	return Spec{
		Params:   nodemodel.DefaultParams(),
		N1:       3,
		SMax:     13,
		F:        1,
		K:        1,
		DeltaR:   15,
		EpsilonA: 0.9,
		Seed:     1,
	}
}

func TestBuiltinsRegistered(t *testing.T) {
	want := []string{
		"TOLERANCE", "NO-RECOVERY", "PERIODIC", "PERIODIC-ADAPTIVE",
		"learned:cem", "learned:de", "learned:bo", "learned:spsa",
		"learned:random", "learned:ppo",
	}
	for _, name := range want {
		s, ok := Lookup(name)
		if !ok {
			t.Errorf("built-in %q not registered", name)
			continue
		}
		if s.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, s.Name())
		}
		if s.Describe() == "" {
			t.Errorf("%q has no description", name)
		}
	}
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if len(names) < len(want) {
		t.Errorf("Names() = %v, want at least %d entries", names, len(want))
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register(nil); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("Register(nil) = %v, want ErrBadStrategy", err)
	}
	if err := Register(fakeStrategy{name: ""}); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("Register(empty name) = %v, want ErrBadStrategy", err)
	}
	if err := Register(fakeStrategy{name: "TOLERANCE"}); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("Register(duplicate) = %v, want ErrBadStrategy", err)
	}
	if err := Register(fakeStrategy{name: "test-custom"}); err != nil {
		t.Fatalf("Register(test-custom) = %v", err)
	}
	if _, ok := Lookup("test-custom"); !ok {
		t.Error("registered strategy not found")
	}
}

// fakeStrategy is a minimal registrable strategy for registry tests.
type fakeStrategy struct {
	name string
}

func (f fakeStrategy) Name() string            { return f.name }
func (f fakeStrategy) Describe() string        { return "test strategy" }
func (f fakeStrategy) Fingerprint(Spec) string { return "static" }
func (f fakeStrategy) Policy(context.Context, Spec, Solvers) (baselines.Policy, error) {
	return baselines.NoRecovery{}, nil
}

func TestBaselineStrategiesBuildWithoutSolvers(t *testing.T) {
	spec := defaultSpec()
	for name, want := range map[string]baselines.Policy{
		"NO-RECOVERY":       baselines.NoRecovery{},
		"PERIODIC":          baselines.Periodic{},
		"PERIODIC-ADAPTIVE": baselines.PeriodicAdaptive{TargetN: spec.N1},
	} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("%q not registered", name)
		}
		pol, err := s.Policy(context.Background(), spec, nil)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if pol != want {
			t.Errorf("%q built policy %#v, want %#v", name, pol, want)
		}
	}
}

func TestSolverStrategiesRequireSolvers(t *testing.T) {
	for _, name := range []string{"TOLERANCE", "learned:cem", "learned:ppo"} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("%q not registered", name)
		}
		if _, err := s.Policy(context.Background(), defaultSpec(), nil); !errors.Is(err, ErrBadStrategy) {
			t.Errorf("%q with nil solvers: err = %v, want ErrBadStrategy", name, err)
		}
	}
}

func TestPeriodicAdaptiveFingerprintVariesWithN1(t *testing.T) {
	s, _ := Lookup("PERIODIC-ADAPTIVE")
	a := defaultSpec()
	b := defaultSpec()
	b.N1 = 9
	if s.Fingerprint(a) == s.Fingerprint(b) {
		t.Error("PERIODIC-ADAPTIVE fingerprint ignores N1 (TargetN differs)")
	}
	static, _ := Lookup("PERIODIC")
	if static.Fingerprint(a) != static.Fingerprint(b) {
		t.Error("PERIODIC fingerprint should not depend on the spec")
	}
}

func TestLearnedFingerprintVariesWithSeedAndBudget(t *testing.T) {
	s, _ := Lookup("learned:cem")
	a := defaultSpec()
	b := defaultSpec()
	b.Seed = 2
	if s.Fingerprint(a) == s.Fingerprint(b) {
		t.Error("learned fingerprint ignores the training seed")
	}
	c := defaultSpec()
	c.Budget = 77
	if s.Fingerprint(a) == s.Fingerprint(c) {
		t.Error("learned fingerprint ignores the budget")
	}
	// Zero budget fields canonicalize to the defaults, so an explicit
	// default budget and an unset one share a fingerprint.
	d := defaultSpec()
	d.Budget, d.Episodes, d.Horizon = DefaultBudget, DefaultEpisodes, DefaultHorizon
	if s.Fingerprint(a) != s.Fingerprint(d) {
		t.Error("explicit default budget fingerprints differently from unset")
	}
}

func TestLearnedStrategyCancellation(t *testing.T) {
	s, _ := Lookup("learned:cem")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Policy(ctx, defaultSpec(), stubSolvers{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled training: err = %v, want context.Canceled", err)
	}
}

// stubSolvers satisfies Solvers for tests that never reach a solve.
type stubSolvers struct{ Solvers }

// TestReadsSeedMatchesFingerprints holds every built-in's SeedReader
// answer to its fingerprints: one that says it does not read the seed
// fingerprints every spec the same whatever the seed, and one that says it
// does tells seeds apart.
func TestReadsSeedMatchesFingerprints(t *testing.T) {
	seeds := []int64{0, 1, -7, 1 << 40, -1 << 63}
	for _, name := range []string{
		"TOLERANCE", "NO-RECOVERY", "PERIODIC", "PERIODIC-ADAPTIVE",
		"learned:cem", "learned:de", "learned:bo", "learned:spsa",
		"learned:random", "learned:ppo",
	} {
		s, _ := Lookup(name)
		sr, ok := s.(SeedReader)
		if !ok {
			t.Errorf("built-in %s does not say whether it reads the seed", name)
			continue
		}
		for _, n1 := range []int{1, 3, 9} {
			for _, deltaR := range []int{1, 15, 1 << 20} {
				spec := defaultSpec()
				spec.N1, spec.DeltaR = n1, deltaR
				fps := map[string]bool{}
				for _, seed := range seeds {
					spec.Seed = seed
					fps[s.Fingerprint(spec)] = true
				}
				if reads := len(fps) > 1; reads != sr.ReadsSeed() {
					t.Errorf("%s (N1 %d, ΔR %d): ReadsSeed() = %v, but %d seeds give %d fingerprints",
						name, n1, deltaR, sr.ReadsSeed(), len(seeds), len(fps))
				}
			}
		}
	}
}
