// Package telemetry is the zero-overhead observability core of the
// evaluation system: counters and fixed-bucket histograms that the fleet
// engine, the strategy cache and the training loops record into,
// snapshotted on demand for the live progress meter, the run manifest and
// the HTTP introspection endpoint.
//
// The package-wide invariant is that telemetry NEVER participates in
// results: no metric read or write touches an rng stream, reorders a fold,
// or writes to stdout, so every suite, solve and training output is
// byte-identical with telemetry attached or detached (enforced by
// TestTelemetryOutputInvariant and the CI metrics-smoke diff). Recording is
// allocation-free — a counter add is one atomic add, a histogram
// observation is three — so the fleet hot path stays at zero allocations
// per scenario with instrumentation active (TestTelemetryHotPathZeroAllocs).
//
// Telemetry off is a nil *Collector, and this package is the only place
// that asks whether one is attached. A nil Collector hands out nil
// handles; every method of a nil Collector, Counter, Gauge, Histogram or
// Training does nothing and allocates nothing, a nil Collector's Phase
// returns a no-op end func without reading the clock, and its Snapshot is
// the zero Snapshot. Callers record unconditionally
// (TestNilTelemetryIsNoop).
//
// A counter is one atomic count and a histogram one row of atomic slots,
// shared by every goroutine that records into it. Snapshot reads them with
// atomic loads, which is why a snapshot can be taken at any moment —
// mid-run, from the HTTP handler, from the progress meter — without
// pausing workers.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct {
	name string
	n    atomic.Int64
}

// Add adds n to the count.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Inc adds one to the count.
func (c *Counter) Inc() { c.Add(1) }

// Total loads the count. It is safe to call while workers record.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is a last-value (or running-minimum or -maximum) float64 metric:
// optimizer best-objective-so-far, last PPO evaluation cost, worker-pool
// size, highest MinBFT view.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Min folds v as a running minimum (for best-so-far objectives). The
// zero-value gauge starts at +Inf semantics: a gauge that was never Set or
// Min'ed reports NaN-free snapshots because Snapshot drops non-finite
// values.
func (g *Gauge) Min(v float64) {
	if g == nil {
		return
	}
	if v == 0 {
		// +0.0 has the zero bit pattern, which encodes "unset"; store -0.0
		// (equal under <=) so the observation is distinguishable from it.
		v = math.Copysign(0, -1)
	}
	for {
		// The zero bits encode "unset": the first observation claims them.
		old := g.bits.Load()
		if old != 0 && math.Float64frombits(old) <= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Max folds v as a running maximum (for high-water marks), the mirror of
// Min: a gauge that was never Set or folded takes the first v, and a
// compare-and-swap loop keeps concurrent folds from losing the larger one.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	if v == 0 {
		v = math.Copysign(0, -1) // as in Min: +0.0's bits encode "unset"
	}
	for {
		old := g.bits.Load()
		if old != 0 && math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value loads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution of int64 observations
// (durations in nanoseconds, step counts). Bucket bounds are fixed at
// registration, so observing is a short linear scan plus three atomic
// adds — no allocation, ever.
type Histogram struct {
	name   string
	bounds []int64 // ascending inclusive upper bounds
	// slots holds the count, the sum, one count per bound and the
	// overflow count, in that order.
	slots []atomic.Int64
}

// Observe folds one value into the histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.slots[0].Add(1)
	h.slots[1].Add(v)
	for i, ub := range h.bounds {
		if v <= ub {
			h.slots[2+i].Add(1)
			return
		}
	}
	h.slots[2+len(h.bounds)].Add(1)
}

// snapshot loads the slots.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:    h.slots[0].Load(),
		Sum:      h.slots[1].Load(),
		Buckets:  make([]BucketCount, len(h.bounds)),
		Overflow: h.slots[2+len(h.bounds)].Load(),
	}
	for i, ub := range h.bounds {
		s.Buckets[i] = BucketCount{Le: ub, Count: h.slots[2+i].Load()}
	}
	return s
}

// DurationBuckets is the standard exponential bucket layout for duration
// histograms (nanosecond observations from 10µs to ~41s, factor 4).
func DurationBuckets() []int64 {
	bounds := make([]int64, 0, 12)
	for ub := int64(10_000); ub < 45_000_000_000; ub *= 4 {
		bounds = append(bounds, ub)
	}
	return bounds
}

// BucketCount is one histogram bucket: the count of observations at most Le
// (not cumulative across buckets; Overflow holds the rest).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a folded histogram.
type HistogramSnapshot struct {
	Count    int64         `json:"count"`
	Sum      int64         `json:"sum"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"`
}

// Phase is one completed wall-clock phase of a run (suite expansion, the
// offline fit, scenario execution, ...), in completion order.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Snapshot is a point-in-time fold of every registered metric — the JSON
// document served at /metrics, embedded in run manifests, and read by the
// progress meter. Map keys marshal sorted, so two snapshots of identical
// state serialize identically.
type Snapshot struct {
	// UptimeSeconds is the collector's age at snapshot time.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Counters holds every counter total, including registered counter
	// funcs (external sources such as the strategy-cache statistics).
	Counters map[string]int64 `json:"counters"`
	// Gauges holds every finite gauge value (never-set gauges are omitted).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms holds the folded distributions.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Phases lists completed wall-clock phases in completion order.
	Phases []Phase `json:"phases,omitempty"`
}

// Counter returns a counter total (zero when absent) — sugar for manifest
// and meter consumers.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Collector owns a process's (or run's) registered metrics. Registration
// takes a mutex and may allocate; recording through the returned handles is
// lock- and allocation-free. Registering an already-registered name returns
// the existing metric, so collectors are shared across sequential runs.
type Collector struct {
	mu     sync.Mutex
	start  time.Time
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	funcs  map[string]func() int64
	phases []Phase
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		start:  time.Now(),
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		funcs:  make(map[string]func() int64),
	}
}

// Counter registers (or retrieves) a counter.
func (c *Collector) Counter(name string) *Counter {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.ctrs[name]; ok {
		return m
	}
	m := &Counter{name: name}
	c.ctrs[name] = m
	return m
}

// Gauge registers (or retrieves) a gauge.
func (c *Collector) Gauge(name string) *Gauge {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.gauges[name]; ok {
		return m
	}
	m := &Gauge{name: name}
	c.gauges[name] = m
	return m
}

// Histogram registers (or retrieves) a fixed-bucket histogram. The first
// registration's bounds win; bounds must be ascending.
func (c *Collector) Histogram(name string, bounds []int64) *Histogram {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.hists[name]; ok {
		return m
	}
	m := &Histogram{
		name:   name,
		bounds: append([]int64(nil), bounds...),
		slots:  make([]atomic.Int64, len(bounds)+3),
	}
	c.hists[name] = m
	return m
}

// CounterFunc registers an external counter source, polled at snapshot
// time — how the strategy cache's existing atomic statistics join the
// snapshot without being counted twice. Re-registering a name replaces the
// source (a fresh cache attached to a shared collector supersedes the old).
func (c *Collector) CounterFunc(name string, fn func() int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.funcs[name] = fn
}

// Phase starts a named wall-clock phase and returns the function that ends
// it; the completed phase joins the snapshot's Phases list. Phases are for
// coarse run structure (expand, fit, execute), not hot paths.
func (c *Collector) Phase(name string) func() {
	if c == nil {
		return endNothing
	}
	start := time.Now()
	return func() {
		sec := time.Since(start).Seconds()
		c.mu.Lock()
		c.phases = append(c.phases, Phase{Name: name, Seconds: sec})
		c.mu.Unlock()
	}
}

// endNothing is the Phase end func of a nil Collector.
func endNothing() {}

// Snapshot folds every registered metric. It is safe to call concurrently
// with recording; every count is read atomically, so a snapshot is a
// consistent recent view, not a stop-the-world cut.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	ctrs := make([]*Counter, 0, len(c.ctrs))
	for _, m := range c.ctrs {
		ctrs = append(ctrs, m)
	}
	gauges := make([]*Gauge, 0, len(c.gauges))
	for _, m := range c.gauges {
		gauges = append(gauges, m)
	}
	hists := make([]*Histogram, 0, len(c.hists))
	for _, m := range c.hists {
		hists = append(hists, m)
	}
	funcs := make(map[string]func() int64, len(c.funcs))
	for name, fn := range c.funcs {
		funcs[name] = fn
	}
	phases := append([]Phase(nil), c.phases...)
	start := c.start
	c.mu.Unlock()

	s := Snapshot{
		UptimeSeconds: time.Since(start).Seconds(),
		Counters:      make(map[string]int64, len(ctrs)+len(funcs)),
		Gauges:        make(map[string]float64, len(gauges)),
		Histograms:    make(map[string]HistogramSnapshot, len(hists)),
		Phases:        phases,
	}
	for _, m := range ctrs {
		s.Counters[m.name] = m.Total()
	}
	for name, fn := range funcs {
		s.Counters[name] = fn()
	}
	for _, m := range gauges {
		if v := m.Value(); !math.IsInf(v, 0) && !math.IsNaN(v) {
			if v == 0 {
				v = 0 // a folded zero is stored as -0.0; report it as 0
			}
			s.Gauges[m.name] = v
		}
	}
	for _, m := range hists {
		s.Histograms[m.name] = m.snapshot()
	}
	return s
}

// Training is the sink the learning loops publish coarse progress through:
// Algorithm 1 objective evaluations and best-objective-so-far, PPO
// iteration count and per-iteration evaluation cost. All methods are safe
// for concurrent use (candidate evaluations run on a worker pool) and
// allocation-free.
type Training struct {
	// Evals counts objective evaluations (Algorithm 1 candidates).
	Evals *Counter
	// Iterations counts PPO rollout/update cycles.
	Iterations *Counter
	// Best tracks the best objective value seen (running minimum).
	Best *Gauge
	// LastCost is the most recent PPO policy-evaluation cost.
	LastCost *Gauge
}

// NewTraining registers the training metrics on the collector; a nil
// collector gives the nil sink.
func NewTraining(c *Collector) *Training {
	if c == nil {
		return nil
	}
	return &Training{
		Evals:      c.Counter("training.evals"),
		Iterations: c.Counter("training.iterations"),
		Best:       c.Gauge("training.best_objective"),
		LastCost:   c.Gauge("training.last_eval_cost"),
	}
}

// ObserveEval records one objective evaluation.
func (t *Training) ObserveEval(v float64) {
	if t == nil {
		return
	}
	t.Evals.Inc()
	t.Best.Min(v)
}

// ObserveIteration records one PPO rollout/update cycle and its evaluation
// cost.
func (t *Training) ObserveIteration(cost float64) {
	if t == nil {
		return
	}
	t.Iterations.Inc()
	t.LastCost.Set(cost)
	t.Best.Min(cost)
}

// Objective wraps an optimizer's batch objective so every candidate's value
// is recorded through ObserveEval, in candidate order — the hook Algorithm
// 1 threads its Monte-Carlo objective through. The wrapper only sees values
// after they are computed, so it changes no draw, fold order or result;
// batches may run concurrently, which ObserveEval allows. A nil sink
// returns obj itself.
func (t *Training) Objective(obj func(thetas [][]float64, out []float64)) func(thetas [][]float64, out []float64) {
	if t == nil {
		return obj
	}
	return func(thetas [][]float64, out []float64) {
		obj(thetas, out)
		for _, v := range out {
			t.ObserveEval(v)
		}
	}
}
