package tolerance

import "fmt"

// Option tunes a v2 facade call (Solve, RunSuite, StreamSuite). Options are
// shared across entry points; each entry point documents which options it
// consumes and ignores the rest. Invalid option values surface as
// ErrBadInput from the entry point.
type Option func(*options)

// options collects every tunable; entry points validate the subset they
// consume.
type options struct {
	// Solve tunables.
	method string
	budget int

	// Suite tunables.
	workers      int
	seed         int64
	steps        int
	seedsPerCell int
	fitSamples   int
	shard        string
	progress     func(done, total int)
	records      []func(ScenarioRecord) error
	telemetry    *Telemetry
}

func collectOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithMethod selects the solver for Solve's recovery problem: MethodDP
// (default, exact dynamic programming), an Algorithm 1 optimizer
// (OptimizerCEM, OptimizerDE, OptimizerBO, OptimizerSPSA, OptimizerRandom),
// or MethodPPO.
func WithMethod(method string) Option {
	return func(o *options) { o.method = method }
}

// WithBudget bounds the training effort of learned solve methods: objective
// evaluations for the Algorithm 1 optimizers, rollout/update iterations for
// PPO. Zero keeps the method default.
func WithBudget(n int) Option {
	return func(o *options) { o.budget = n }
}

// WithWorkers bounds the parallelism of a v2 call (default GOMAXPROCS):
// the fleet worker pool for RunSuite/StreamSuite, and the concurrent
// candidate/rollout evaluations of Solve's learned methods (the Algorithm 1
// optimizers and PPO). Results are bit-identical for any value — the knob
// trades wall-clock for cores, never output.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithSeed overrides the suite's master seed (RunSuite) or sets the
// training seed (Solve with a learned method). Zero keeps the default.
func WithSeed(seed int64) Option {
	return func(o *options) { o.seed = seed }
}

// WithSteps overrides the per-scenario step count when non-zero.
func WithSteps(n int) Option {
	return func(o *options) { o.steps = n }
}

// WithSeedsPerCell overrides the evaluation seeds per grid cell when
// non-zero.
func WithSeedsPerCell(n int) Option {
	return func(o *options) { o.seedsPerCell = n }
}

// WithFitSamples overrides the suite's Ẑ-estimation sample budget when
// non-zero.
func WithFitSamples(n int) Option {
	return func(o *options) { o.fitSamples = n }
}

// WithShard restricts a suite run to the deterministic slice i of n of the
// scenario index set, so a grid fans out across machines; merging the
// shards' records reproduces the unsharded output byte for byte.
func WithShard(i, n int) Option {
	return func(o *options) { o.shard = fmt.Sprintf("%d/%d", i, n) }
}

// WithProgress installs a progress callback, called after each folded
// scenario with the number folded so far and the number scheduled.
func WithProgress(fn func(done, total int)) Option {
	return func(o *options) { o.progress = fn }
}

// WithRecordHandler subscribes a consumer to the per-scenario record
// stream: the handler receives every freshly executed scenario in fold
// (index) order, while the run is still in flight. A handler error aborts
// the run. Multiple handlers are called in registration order — checkpoint
// writers, live dashboards and StreamSuite are all consumers of this one
// stream.
func WithRecordHandler(fn func(ScenarioRecord) error) Option {
	return func(o *options) {
		if fn != nil {
			o.records = append(o.records, fn)
		}
	}
}
