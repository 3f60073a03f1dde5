package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"tolerance/internal/chaos"
	"tolerance/internal/clusterbackend"
	"tolerance/internal/emulation"
	"tolerance/internal/telemetry"
)

// The built-in scenario backends. BackendEmulation is the default when a
// suite names no backends: the in-process discrete-time emulation the whole
// determinism contract is built on, which the engine runs on its
// worker-resident runner, never through the registry (Suite.Cells spells
// it as the empty Backend). BackendCluster executes the same scenario
// schedule against a live MinBFT replica group over loopback TCP
// (internal/clusterbackend).
const (
	BackendEmulation = "emulation"
	BackendCluster   = "cluster"
)

// BackendOptions carries per-run context from the engine into a backend.
type BackendOptions struct {
	// Telemetry receives the backend's live metrics (e.g. the cluster.*
	// family); nil disables collection.
	Telemetry *telemetry.Collector
	// Chaos is the armed fault-injection plan (nil = off). Backends that
	// open real network links wrap them with Chaos.WrapEndpoint.
	Chaos *chaos.Plan
}

// ScenarioBackend executes one fully-resolved emulation scenario — seed,
// fits and policy already bound by the engine — and returns its metrics for
// the standard Welford fold. Implementations must be safe for concurrent
// Run calls from multiple fleet workers.
type ScenarioBackend interface {
	// Name is the registry key, valid in a suite's "backends" axis.
	Name() string
	Run(ctx context.Context, sc emulation.Scenario, opts BackendOptions) (emulation.Metrics, error)
}

var (
	backendMu       sync.RWMutex
	backendRegistry = map[string]ScenarioBackend{}
)

// RegisterBackend adds a backend to the registry, replacing any previous
// entry with the same name. Registration normally happens in init funcs,
// before suites are validated.
func RegisterBackend(b ScenarioBackend) {
	backendMu.Lock()
	defer backendMu.Unlock()
	backendRegistry[b.Name()] = b
}

// LookupBackend resolves a registered backend by name.
func LookupBackend(name string) (ScenarioBackend, bool) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	b, ok := backendRegistry[name]
	return b, ok
}

// BackendNames lists BackendEmulation and the registered backend names in
// sorted order — the valid values for Suite.Backends and suite-file
// "backends" entries.
func BackendNames() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := []string{BackendEmulation}
	for n := range backendRegistry {
		if n != BackendEmulation {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterBackend(clusterBackend{})
}

// clusterBackend adapts clusterbackend.Run: the scenario drives a live
// MinBFT replica group over loopback TCP, with real process restarts and
// membership changes on the seeded emulation schedule.
type clusterBackend struct{}

func (clusterBackend) Name() string { return BackendCluster }

func (clusterBackend) Run(ctx context.Context, sc emulation.Scenario, opts BackendOptions) (emulation.Metrics, error) {
	res, err := clusterbackend.Run(ctx, sc, clusterbackend.Options{
		Telemetry: opts.Telemetry,
		Chaos:     opts.Chaos,
	})
	if err != nil {
		return emulation.Metrics{}, fmt.Errorf("cluster backend: %w", err)
	}
	return res.Metrics, nil
}
