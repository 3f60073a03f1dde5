package emulation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tolerance/internal/attacker"
	"tolerance/internal/baselines"
	"tolerance/internal/dist"
	"tolerance/internal/ids"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
)

// ErrBadScenario is returned for invalid scenario configurations.
var ErrBadScenario = errors.New("emulation: bad scenario")

// Scenario configures one evaluation run (§VIII-A).
type Scenario struct {
	// N1 is the initial number of nodes.
	N1 int
	// SMax caps the replication factor (Table 3 has 13 physical nodes).
	SMax int
	// K is the number of parallel recoveries allowed (Prop. 1; Table 8: 1).
	K int
	// F is the tolerance threshold; 0 selects the paper's evaluation rule
	// f = min((N1-1)/2, 2) (Table 8).
	F int
	// DeltaR is the BTR bound (recovery.InfiniteDeltaR = none).
	DeltaR int
	// Steps is the number of 60-second time steps to simulate.
	Steps int
	// Seed drives all randomness of the run.
	Seed int64
	// Params is the node model (Table 8 §X values by default).
	Params nodemodel.Params
	// Policy is the two-level control strategy under evaluation.
	Policy baselines.Policy
	// FitSamples is M for the Ẑ estimation (paper: 25,000).
	FitSamples int
	// FitSeed seeds the dedicated Ẑ-fitting rng stream; zero derives it
	// from Seed via FitStreamSeed. Fleet engines set one fit seed per
	// suite so every scenario of a grid shares the same offline fit.
	FitSeed int64
	// Fits supplies a pre-fitted observation-model set (the offline
	// training artifact, typically from a fleet-level fit cache). Nil fits
	// one inside Run from (FitSamples, FitSeed); a run with a supplied set
	// built from the same samples and seed is byte-identical to one that
	// fits inline.
	Fits *FitSet
	// Workload is the background client population.
	Workload BackgroundWorkload
}

// ApplyDefaults validates the scenario and fills its zero fields with the
// paper's evaluation defaults. Every backend calls it, so one set of rules
// accepts or rejects a scenario.
func (s *Scenario) ApplyDefaults() error {
	if s.Policy == nil {
		return fmt.Errorf("%w: nil policy", ErrBadScenario)
	}
	if s.N1 < 1 {
		return fmt.Errorf("%w: N1 = %d", ErrBadScenario, s.N1)
	}
	if s.SMax == 0 {
		s.SMax = 13
	}
	if s.N1 > s.SMax {
		return fmt.Errorf("%w: N1 = %d > smax = %d", ErrBadScenario, s.N1, s.SMax)
	}
	if s.K == 0 {
		s.K = 1
	}
	if s.F == 0 {
		s.F = DefaultThreshold(s.N1)
	}
	if s.DeltaR < 0 || s.DeltaR > math.MaxInt32 {
		return fmt.Errorf("%w: deltaR = %d", ErrBadScenario, s.DeltaR)
	}
	if s.Steps == 0 {
		s.Steps = 1000
	}
	if s.Params.ZHealthy == nil {
		p := nodemodel.DefaultParams()
		p.PA = 0.1 // §X evaluation value
		s.Params = p
	}
	if err := s.Params.Validate(); err != nil {
		return err
	}
	if s.FitSamples == 0 {
		s.FitSamples = 25000
	}
	if s.Workload.Lambda == 0 {
		s.Workload = DefaultBackgroundWorkload()
	}
	return nil
}

// ResolveFits returns the scenario's offline fit: the supplied Fits, or a
// set fitted from (FitSamples, FitSeed), where a zero FitSeed derives from
// Seed via FitStreamSeed.
func (s *Scenario) ResolveFits() (*FitSet, error) {
	if s.Fits != nil {
		return s.Fits, nil
	}
	fitSeed := s.FitSeed
	if fitSeed == 0 {
		fitSeed = FitStreamSeed(s.Seed)
	}
	return NewFitSet(s.FitSamples, fitSeed)
}

// DefaultThreshold is the paper's evaluation rule for the tolerance
// threshold: f = min((N1-1)/2, 2), at least 1 (Table 8). Scenario
// defaulting and the fleet grid expansion both use it.
func DefaultThreshold(n1 int) int {
	f := (n1 - 1) / 2
	if f > 2 {
		f = 2
	}
	if f < 1 {
		f = 1
	}
	return f
}

// Metrics aggregates one run's evaluation quantities (§III-C, Table 7).
type Metrics struct {
	// Availability is T(A): the fraction of steps where at most f nodes
	// were compromised or crashed (the paper's §III-C metric).
	Availability float64
	// QuorumAvailability additionally requires N_t >= 2f+1+k alive nodes
	// (the full Prop. 1 condition for correct service): it exposes
	// replication shortfalls that T(A) alone does not.
	QuorumAvailability float64
	// TimeToRecovery is T(R) in steps, penalty 10^3 for unrecovered
	// intrusions.
	TimeToRecovery float64
	// RecoveryFrequency is F(R): recoveries per node-step.
	RecoveryFrequency float64
	// AvgNodes is the mean replication factor over the run.
	AvgNodes float64
	// AvgCost is the eq. (5) control cost per node-step: eta per
	// compromised waiting node plus 1 per recovery.
	AvgCost float64
	// Intrusions counts completed compromises.
	Intrusions int
	// Recoveries counts controller recoveries.
	Recoveries int
	// Evictions and Additions count replication-factor changes.
	Evictions, Additions int
	// ServiceLatencyMS is the mean client-request latency in milliseconds,
	// measured only by backends that serve a real workload (the live-cluster
	// backend). The analytic emulation leaves it zero; omitempty keeps
	// emulation records and checkpoints byte-identical to releases that
	// predate the field.
	ServiceLatencyMS float64 `json:"ServiceLatencyMS,omitempty"`
}

// simNode is one virtual node of the testbed: the environment-side state
// (container, compromise progress, attack campaign). The monitoring-side
// state the node controller iterates every step — belief, last action,
// pending alert boosts, Ẑ table offsets, BTR window position — lives in the
// runner's beliefLanes (struct-of-arrays), so the per-step belief recursion
// runs over dense slices instead of chasing node pointers. The intrusion
// tracker is embedded by value (underAttack marks it live), so starting a
// campaign never allocates.
type simNode struct {
	id            int
	container     Container
	state         nodemodel.State
	intrusion     attacker.Intrusion
	underAttack   bool
	behaviour     attacker.Behaviour
	compromisedAt int
}

// beliefLanes is the per-node monitoring state in struct-of-arrays form,
// indexed by the node's position in runner.nodes. The persistent lanes
// (belief, off, boost, wpos, action, mark) are appended on spawn, compacted in
// lockstep with node eviction and truncated with the node set; obs is the
// per-step output of the observation pass (length = node count at the start
// of the step, so it still covers nodes evicted later in the step). Lane
// backing arrays are reused across steps and across scenarios, preserving
// the warm-runner zero-allocation property.
type beliefLanes struct {
	belief []float64 // node-controller belief b_t
	off    []int32   // flat Ẑ slab offset = container index × alert support
	boost  []int32   // pending alert boost from the ongoing intrusion
	wpos   []int32   // BTR window position (t + calendar offset) mod ΔR; 0 at ΔR = ∞
	action []uint8   // last action (uint8(nodemodel.Wait) = 0, Recover = 1)
	mark   []uint32  // forced-recovery epoch mark (stage 2 membership test)
	obs    []int     // this step's observations (also the AddNode context)
}

// appendNode adds one node's monitoring state (fresh belief pa, Ẑ offset
// off, window position wpos) to the persistent lanes.
func (l *beliefLanes) appendNode(pa float64, off, wpos int32) {
	l.belief = append(l.belief, pa)
	l.off = append(l.off, off)
	l.boost = append(l.boost, 0)
	l.wpos = append(l.wpos, wpos)
	l.action = append(l.action, 0)
	l.mark = append(l.mark, 0)
}

// move copies the persistent lane entries of src to dst (eviction
// compaction, mirroring the node-slice compaction).
func (l *beliefLanes) move(dst, src int) {
	l.belief[dst] = l.belief[src]
	l.off[dst] = l.off[src]
	l.boost[dst] = l.boost[src]
	l.wpos[dst] = l.wpos[src]
	l.action[dst] = l.action[src]
	l.mark[dst] = l.mark[src]
}

// truncate shortens the persistent lanes to n entries, keeping capacity.
func (l *beliefLanes) truncate(n int) {
	l.belief = l.belief[:n]
	l.off = l.off[:n]
	l.boost = l.boost[:n]
	l.wpos = l.wpos[:n]
	l.action = l.action[:n]
	l.mark = l.mark[:n]
}

// reserve sizes every lane for n nodes in one shot. The replication cap
// s_max bounds the node count for the whole run, so reserving once at reset
// replaces the per-lane append-doubling series with a single allocation per
// lane — and a runner reused across scenarios of equal cap never allocates
// lanes again. Only called on empty lanes (after truncate(0)).
func (l *beliefLanes) reserve(n int) {
	l.belief = make([]float64, 0, n)
	i32 := make([]int32, 3*n)
	l.off = i32[0:0:n]
	l.boost = i32[n : n : 2*n]
	l.wpos = i32[2*n : 2*n : 3*n]
	l.action = make([]uint8, 0, n)
	l.mark = make([]uint32, 0, n)
	l.obs = make([]int, 0, n)
}

// growInts returns s resized to n entries, reusing its backing array when
// the capacity suffices (the steady-state case).
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// runner holds one scenario run's state: the rng streams, the node set,
// running metric sums, and scratch buffers reused across steps so the
// steady-state step loop allocates nothing (guarded by
// TestStepZeroAllocations). A runner is additionally reusable across
// scenarios through reset: the node structs, rng streams, scratch buffers
// and metric state all carry over, so a worker that executes many scenarios
// (the fleet engine's worker-resident mode) reaches a steady state where a
// whole scenario run allocates nothing (guarded by
// TestRunIntoSteadyStateZeroAllocations).
type runner struct {
	s Scenario
	// The streams are held by value so every hot draw inlines into step.
	rng  dist.Stream // node/environment stream (seeded by Scenario.Seed)
	wrng dist.Stream // background-workload stream (arrivals + departures)
	// rngView is rng as a *rand.Rand, for the consumers whose signatures
	// take one (SystemContext.Rng, Intrusion.Advance). It draws from rng's
	// state, so the draw order is that of a single generator — and it points
	// into this struct, so a runner must not be copied after its first reset.
	rngView *rand.Rand
	fits    *FitSet
	// bayes is the node controllers' belief recursion for s.Params.
	bayes nodemodel.Bayes

	nodes  []*simNode
	pool   []*simNode // recycled node structs (evictions + resets)
	nextID int

	m              Metrics
	recoveryTimes  []float64
	availableSteps int
	quorumSteps    int
	nodeSteps      int
	totalNodes     float64
	costSum        float64
	obsSum         float64
	obsCount       int
	sessions       int

	// ln is the SoA monitoring state (see beliefLanes); epoch stamps the
	// per-step forced-recovery marks, so stage 2's membership test is one
	// lane compare instead of a scan over the recovering list.
	ln    beliefLanes
	epoch uint32

	// Fixed-parameter workload samplers, with the per-step transcendentals
	// hoisted into reset.
	poisson dist.PoissonSampler
	binom   dist.BinomialSampler

	// Per-step scratch, reused across steps (node indices into r.nodes).
	recovering []int32
	candidates []int32

	// plant receives the steps' real-world effects (nil in the emulation);
	// t is the last step taken.
	plant Plant
	t     int
}

// reset validates the scenario, resolves the offline fit, recycles the
// previous run's node structs, reseeds the rng streams in place, and places
// the initial nodes. After reset the runner is in exactly the state a
// freshly constructed runner for the scenario would be in.
func (r *runner) reset(s Scenario) error {
	if err := s.ApplyDefaults(); err != nil {
		return err
	}
	fits, err := s.ResolveFits()
	if err != nil {
		return err
	}
	r.s = s
	r.fits = fits
	r.bayes = s.Params.Bayes()
	r.rng.Seed(s.Seed)
	r.wrng.Seed(WorkloadStreamSeed(s.Seed))
	if r.rngView == nil {
		r.rngView = rand.New(&r.rng)
	}
	r.pool = append(r.pool, r.nodes...)
	r.nodes = r.nodes[:0]
	r.m = Metrics{}
	r.recoveryTimes = r.recoveryTimes[:0]
	r.availableSteps, r.quorumSteps, r.nodeSteps = 0, 0, 0
	r.totalNodes, r.costSum, r.obsSum = 0, 0, 0
	r.obsCount, r.sessions = 0, 0
	r.ln.truncate(0)
	if cap(r.ln.belief) < s.SMax {
		r.ln.reserve(s.SMax)
	}
	r.epoch = 0
	r.poisson.Reset(s.Workload.Lambda)
	r.binom.Reset(1 / s.Workload.MeanServiceSteps)
	r.recovering = r.recovering[:0]
	r.candidates = r.candidates[:0]
	r.t = 0
	for i := 0; i < s.N1; i++ {
		wpos := 0
		if s.DeltaR != recovery.InfiniteDeltaR {
			wpos = (i * s.DeltaR) / s.N1 // stagger forced recoveries
		}
		r.spawn(i, wpos)
	}
	r.nextID = s.N1
	return nil
}

// newRunner validates the scenario, resolves the offline fit, and places
// the initial nodes.
func newRunner(s Scenario) (*runner, error) {
	r := &runner{}
	if err := r.reset(s); err != nil {
		return nil, err
	}
	return r, nil
}

// spawn appends a node running a uniformly drawn catalog image — recycling
// a previously evicted node struct when one is available — together with
// its monitoring-lane entries (fresh belief pA, the container's Ẑ slab
// offset, and wpos, its BTR window position at the current step).
func (r *runner) spawn(id, wpos int) {
	var n *simNode
	if k := len(r.pool); k > 0 {
		n, r.pool = r.pool[k-1], r.pool[:k-1]
	} else {
		n = &simNode{}
	}
	ci := r.rng.Intn(r.fits.Len())
	*n = simNode{
		id:            id,
		container:     r.fits.Container(ci),
		state:         nodemodel.Healthy,
		compromisedAt: -1,
	}
	r.nodes = append(r.nodes, n)
	r.ln.appendNode(r.s.Params.PA, int32(ci*r.fits.support), int32(wpos))
}

// Plant is the live system a run's control decisions act on — the cluster
// backend's replica group. The run draws every schedule event itself and
// tells the plant which node it hit by the node's stable id (0..N1−1 for
// the initial nodes, then one per addition in order), so a plant makes no
// draw and keeps only the real-world side effects. A plant never feeds
// back into the run: the schedule and every metric but the ones the plant
// measures itself are the emulation's, draw for draw.
type Plant interface {
	// Recover restarts node id in place (stage 3). A crashed node
	// restarts too: recovery doubles as repair.
	Recover(id int)
	// Evict removes crashed node id from the group (stage 4).
	Evict(id int)
	// Add starts node id and joins it to the group (stage 4).
	Add(id int)
	// Measure samples the service once per step, after the structural
	// metrics and before the environment moves (between stages 5 and 6).
	Measure()
	// Crash stops node id (stage 6).
	Crash(id int)
	// Compromise hands node id to the attacker, whose behaviour b it
	// shows from now on (stage 6).
	Compromise(id int, b attacker.Behaviour)
	// Clean returns node id to honest service after a software update
	// silently removed the intrusion (stage 6).
	Clean(id int)
}

// Runner executes scenarios with state that is reused from one run to the
// next: the node structs, rng streams, metric accumulators and scratch
// buffers of a finished scenario become the next scenario's starting
// capital. A Runner is for a single goroutine; fleet workers hold one each
// and execute their whole batch stream through it, which removes the
// per-scenario construction cost (≈ the runner, its node set and both rng
// streams) from the grid hot path. Results are bit-identical to Run: reset
// reproduces exactly the state a fresh runner would start with.
type Runner struct {
	run   runner
	onRun func(steps int)
}

// NewRunner returns an empty reusable runner; the first RunInto sizes it.
func NewRunner() *Runner { return &Runner{} }

// OnRun installs a completion observer: every Finish (so every successful
// RunInto) calls fn with the number of simulated steps (post-default, so the
// real count). The observer is for telemetry only — it runs after the
// scenario's randomness is fully consumed, receives no simulation state,
// and must not retain references; metrics are unchanged whether one is
// installed or not. The call itself is allocation-free, preserving the
// warm-runner zero-alloc guarantee.
func (r *Runner) OnRun(fn func(steps int)) { r.onRun = fn }

// Start begins a step-at-a-time run of s: it validates the scenario,
// resolves the offline fit and places the initial nodes, exactly as
// RunInto does, and makes plant (nil for the pure emulation) receive the
// steps' real-world effects. Step then advances the run and Finish ends it.
func (r *Runner) Start(s Scenario, plant Plant) error {
	r.run.plant = plant
	return r.run.reset(s)
}

// Step takes the run's next step, if any remain, and reports whether
// another remains after it.
func (r *Runner) Step() bool {
	run := &r.run
	if run.t >= run.s.Steps {
		return false
	}
	run.t++
	run.step(run.t)
	return run.t < run.s.Steps
}

// Finish applies the end-of-run penalties and returns the metrics of the
// run Start began.
func (r *Runner) Finish() Metrics {
	if r.onRun != nil {
		r.onRun(r.run.s.Steps)
	}
	return *r.run.finish()
}

// RunInto executes the scenario on the reusable runner and returns the
// metrics by value (no per-run allocation).
func (r *Runner) RunInto(s Scenario) (Metrics, error) { return RunInto(r, s) }

// RunInto executes a scenario on a reusable runner: the runner's node pool,
// rng streams and scratch state are recycled, so a warm runner executes a
// whole scenario without allocating (guarded by
// TestRunIntoSteadyStateZeroAllocations). Output is bit-identical to Run.
func RunInto(r *Runner, s Scenario) (Metrics, error) {
	if err := r.Start(s, nil); err != nil {
		return Metrics{}, err
	}
	for r.Step() {
	}
	return r.Finish(), nil
}

// Run executes a scenario and returns its metrics. It is the allocate-fresh
// wrapper around RunInto; callers executing many scenarios should hold a
// Runner and use RunInto instead.
//
//tolerance:testonly oracle: the fresh-Runner run that reuse and the live cluster are held to
func Run(s Scenario) (*Metrics, error) {
	m, err := RunInto(NewRunner(), s)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// step advances the simulation by one 60-second time step.
func (r *runner) step(t int) {
	s := &r.s
	rng := &r.rng
	L := &r.ln
	plant := r.plant

	// Background client population (Poisson arrivals, exponential service
	// approximated by geometric departures — a Binomial(sessions, 1/mu)
	// thinning per step); the load adds baseline alert noise. Both draws
	// come from the dedicated workload stream, through the fixed-parameter
	// samplers.
	r.sessions += r.poisson.Sample(&r.wrng)
	r.sessions -= r.binom.Sample(&r.wrng, r.sessions)
	load := float64(r.sessions) / (s.Workload.Lambda * s.Workload.MeanServiceSteps)

	// 1. Observations and belief updates, in one pass over the lanes: each
	// node draws its observation — strictly in node order, the rng draw
	// order is part of the determinism contract — gathers the observation's
	// Ẑ likelihood pair from the FitSet slabs and takes its Appendix A
	// update, which draws nothing.
	n := len(r.nodes)
	obsLane := growInts(L.obs, n)
	zhFlat, zcFlat := r.fits.zhFlat, r.fits.zcFlat
	pFalse := 0.1 * load // background-traffic false-alert probability
	for i, nd := range r.nodes {
		z := nd.container.Profile.NoIntrusion
		if nd.state == nodemodel.Compromised {
			z = nd.container.Profile.Intrusion
		}
		obs := z.Quantile(rng.Float64())
		obs += int(L.boost[i])
		L.boost[i] = 0
		if rng.Bernoulli(pFalse) {
			obs++ // background-traffic false alert
		}
		if obs >= ids.AlertSupport {
			obs = ids.AlertSupport - 1
		}
		obsLane[i] = obs
		r.obsSum += float64(obs)
		flat := int(L.off[i]) + obs
		L.belief[i] = r.bayes.Update(L.belief[i], nodemodel.Action(L.action[i]), zcFlat[flat], zhFlat[flat])
	}
	r.obsCount += n
	L.obs = obsLane

	// 2. Action selection: forced calendar recoveries first, then the
	// policy's threshold recoveries, capped at k parallel recoveries.
	// Forced nodes are marked with this step's epoch, so the exclusion
	// test below is one lane compare per node instead of the old O(k·n)
	// scan over the recovering list.
	r.epoch++
	epoch := r.epoch
	recovering := r.recovering[:0]
	bounded := s.DeltaR != recovery.InfiniteDeltaR
	if bounded {
		// Every node's calendar moves one step; the lane holds
		// (t + offset) mod ΔR without a division per node.
		wrap := int32(s.DeltaR)
		for i, w := range L.wpos {
			if w++; w == wrap {
				w = 0
			}
			L.wpos[i] = w
		}
		if s.Policy.UsesBTR() {
			for i, w := range L.wpos {
				if w == 0 && len(recovering) < s.K {
					recovering = append(recovering, int32(i))
					L.mark[i] = epoch
				}
			}
		}
	}
	// Threshold recoveries in descending belief order.
	candidates := r.candidates[:0]
	for i := range r.nodes {
		if L.mark[i] == epoch {
			continue
		}
		windowPos := t // no calendar at ΔR = ∞: the window is the run
		if bounded {
			windowPos = int(L.wpos[i])
			if windowPos == 0 {
				continue
			}
		}
		action := s.Policy.NodeAction(baselines.NodeContext{
			Belief:    L.belief[i],
			Obs:       obsLane[i],
			WindowPos: windowPos,
			DeltaR:    s.DeltaR,
		})
		if action == nodemodel.Recover {
			candidates = append(candidates, int32(i))
		}
	}
	sortIndicesByBelief(candidates, L.belief)
	for _, ci := range candidates {
		if len(recovering) >= s.K {
			break
		}
		recovering = append(recovering, ci)
	}
	r.recovering, r.candidates = recovering, candidates

	// 3. Apply recoveries: the container is replaced with a random
	// image from Table 4 (§VIII-A) and the belief resets.
	clear(L.action)
	for _, ci := range recovering {
		i := int(ci)
		nd := r.nodes[i]
		r.m.Recoveries++
		if nd.compromisedAt >= 0 {
			r.recoveryTimes = append(r.recoveryTimes, float64(t-nd.compromisedAt))
			nd.compromisedAt = -1
		}
		k := rng.Intn(r.fits.Len())
		nd.container = r.fits.Container(k)
		L.off[i] = int32(k * r.fits.support)
		nd.state = nodemodel.Healthy
		nd.underAttack = false
		L.belief[i] = s.Params.PA
		L.action[i] = uint8(nodemodel.Recover)
		if plant != nil {
			plant.Recover(nd.id)
		}
	}

	// 4. System controller: evict crashed nodes (they failed to report
	// a belief, §V-B), then decide whether to add one. The lanes compact
	// in lockstep with the node slice.
	evictedNow := 0
	alive := r.nodes[:0]
	j := 0
	for i, nd := range r.nodes {
		if nd.state == nodemodel.Crashed {
			r.m.Evictions++
			evictedNow++
			r.pool = append(r.pool, nd)
			if plant != nil {
				plant.Evict(nd.id)
			}
			continue
		}
		if j != i {
			L.move(j, i)
		}
		alive = append(alive, nd)
		j++
	}
	r.nodes = alive
	L.truncate(j)
	healthyEstimate := 0.0
	for _, b := range L.belief {
		healthyEstimate += 1 - b
	}
	est := int(math.Floor(healthyEstimate))
	if est > s.SMax {
		est = s.SMax
	}
	meanObs := 0.0
	if r.obsCount > 0 {
		meanObs = r.obsSum / float64(r.obsCount)
	}
	if len(r.nodes) < s.SMax && s.Policy.AddNode(baselines.SystemContext{
		HealthyEstimate: est,
		AliveNodes:      len(r.nodes),
		Observations:    obsLane,
		MeanObs:         meanObs,
		Rng:             r.rngView,
	}) {
		wpos := 0
		if bounded {
			// A uniform calendar offset, as this step's window position.
			wpos = (t + rng.Intn(s.DeltaR)) % s.DeltaR
		}
		r.spawn(r.nextID, wpos)
		if plant != nil {
			plant.Add(r.nextID)
		}
		r.nextID++
		r.m.Additions++
	}

	// 5. Metrics: T(A) counts the steps where at most f nodes are
	// compromised or crashed (§III-C; crashed nodes were evicted in
	// stage 4, so they are exactly this step's eviction count).
	compromised := 0
	for i, nd := range r.nodes {
		switch {
		case L.action[i] == uint8(nodemodel.Recover):
			r.costSum++ // eq. (5): a recovery costs 1
		case nd.state == nodemodel.Compromised:
			r.costSum += s.Params.Eta // eq. (5): waiting while compromised
		}
		if nd.state == nodemodel.Compromised {
			compromised++
		}
	}
	if compromised+evictedNow <= s.F {
		r.availableSteps++
		if len(r.nodes) >= 2*s.F+1+s.K {
			r.quorumSteps++
		}
	}
	r.nodeSteps += len(r.nodes)
	r.totalNodes += float64(len(r.nodes))
	if plant != nil {
		plant.Measure()
	}

	// 6. Environment transition: intrusions, crashes, updates.
	for i, nd := range r.nodes {
		switch nd.state {
		case nodemodel.Healthy:
			if rng.Bernoulli(s.Params.PC1) {
				nd.state = nodemodel.Crashed
				if plant != nil {
					plant.Crash(nd.id)
				}
				continue
			}
			if !nd.underAttack && rng.Bernoulli(s.Params.PA) {
				if err := nd.intrusion.Begin(nd.container.ID); err == nil {
					nd.underAttack = true
				}
			}
			if nd.underAttack {
				L.boost[i] += int32(nd.intrusion.Advance(r.rngView))
				if nd.intrusion.Done() {
					nd.state = nodemodel.Compromised
					nd.behaviour = nd.intrusion.Behaviour
					nd.compromisedAt = t
					r.m.Intrusions++
					if plant != nil {
						plant.Compromise(nd.id, nd.behaviour)
					}
				}
			}
		case nodemodel.Compromised:
			if rng.Bernoulli(s.Params.PC2) {
				nd.state = nodemodel.Crashed
				if nd.compromisedAt >= 0 {
					r.recoveryTimes = append(r.recoveryTimes, recovery.NoRecoveryPenalty)
					nd.compromisedAt = -1
				}
				if plant != nil {
					plant.Crash(nd.id)
				}
				continue
			}
			if rng.Bernoulli(s.Params.PU) {
				// Software update silently cleans the node (eq. 2g);
				// not a controller recovery, so T(R) is not recorded.
				nd.state = nodemodel.Healthy
				nd.underAttack = false
				nd.compromisedAt = -1
				if plant != nil {
					plant.Clean(nd.id)
				}
			}
		}
	}
}

// finish applies end-of-run penalties and assembles the metrics.
func (r *runner) finish() *Metrics {
	s := &r.s
	m := &r.m
	// Unrecovered intrusions at the end of the run take the penalty.
	for _, n := range r.nodes {
		if n.compromisedAt >= 0 {
			r.recoveryTimes = append(r.recoveryTimes, recovery.NoRecoveryPenalty)
		}
	}

	m.Availability = float64(r.availableSteps) / float64(s.Steps)
	m.QuorumAvailability = float64(r.quorumSteps) / float64(s.Steps)
	if r.nodeSteps > 0 {
		m.RecoveryFrequency = float64(m.Recoveries) / float64(r.nodeSteps)
		m.AvgCost = r.costSum / float64(r.nodeSteps)
	}
	if len(r.recoveryTimes) > 0 {
		sum := 0.0
		for _, v := range r.recoveryTimes {
			sum += v
		}
		m.TimeToRecovery = sum / float64(len(r.recoveryTimes))
	}
	m.AvgNodes = r.totalNodes / float64(s.Steps)
	return m
}

// sortIndicesByBelief sorts candidate node indices in descending belief
// order over the belief lane — the same stable insertion sort (ties keep
// node order) the node-pointer form used, without the pointer chase per
// comparison.
func sortIndicesByBelief(idx []int32, belief []float64) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && belief[idx[j]] > belief[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// Summary holds a mean and its 95% confidence half-width.
type Summary struct {
	Mean float64
	CI   float64
}

// Welford accumulates a running mean and variance in one pass (Welford's
// online algorithm), so multi-seed and fleet-scale evaluations can fold
// per-run metrics into summaries without retaining the samples. Folding the
// same values in the same order always produces bit-identical results.
type Welford struct {
	// Count is the number of folded samples.
	Count int64
	// Mean is the running sample mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
}

// Add folds one sample.
func (w *Welford) Add(x float64) {
	w.Count++
	delta := x - w.Mean
	w.Mean += delta / float64(w.Count)
	w.M2 += delta * (x - w.Mean)
}

// Merge folds another accumulator's state into w, as if its samples had
// been appended to w's stream (Chan et al.'s parallel combination of the
// running moments). Merging the pieces of a split stream reproduces the
// single-stream mean and variance up to floating-point rounding; exact
// bit-identity with a sequential Add fold is not guaranteed. Merge itself
// is deterministic, which is what the fleet relies on: it folds through
// fixed-span partials whose boundaries are a pure function of the
// schedule, so every path (workers, shard-merge, resume, coordinator)
// performs the identical Merge sequence and stays byte-identical.
func (w *Welford) Merge(other Welford) {
	if other.Count == 0 {
		return
	}
	if w.Count == 0 {
		*w = other
		return
	}
	n := float64(w.Count + other.Count)
	delta := other.Mean - w.Mean
	w.Mean += delta * float64(other.Count) / n
	w.M2 += other.M2 + delta*delta*float64(w.Count)*float64(other.Count)/n
	w.Count += other.Count
}

// Variance returns the sample variance (zero below two samples).
func (w *Welford) Variance() float64 {
	if w.Count < 2 {
		return 0
	}
	return w.M2 / float64(w.Count-1)
}

// Summary returns the mean with its 95% Student-t confidence half-width.
func (w *Welford) Summary() Summary {
	if w.Count < 2 {
		return Summary{Mean: w.Mean}
	}
	se := math.Sqrt(w.Variance() / float64(w.Count))
	return Summary{Mean: w.Mean, CI: tCritical95(int(w.Count)-1) * se}
}

// Aggregate is the multi-seed result for one strategy/configuration cell of
// Table 7.
type Aggregate struct {
	Availability       Summary
	QuorumAvailability Summary
	TimeToRecovery     Summary
	RecoveryFrequency  Summary
	AvgNodes           Summary
	Cost               Summary
	// Latency summarizes measured service latency (ms) for backends that
	// report it; nil — and therefore absent from the serialization — when no
	// folded run carried a latency, which keeps emulation-backend results
	// byte-identical to releases that predate the field.
	Latency *Summary `json:"Latency,omitempty"`
}

// Accumulator streams per-run Metrics into an Aggregate (one Welford
// accumulator per metric).
type Accumulator struct {
	Availability       Welford
	QuorumAvailability Welford
	TimeToRecovery     Welford
	RecoveryFrequency  Welford
	AvgNodes           Welford
	Cost               Welford
	// Latency folds only runs that measured a service latency (cluster
	// backend); its count is therefore allowed to trail the other lanes.
	Latency Welford
}

// Add folds one run's metrics.
func (a *Accumulator) Add(m *Metrics) {
	a.Availability.Add(m.Availability)
	a.QuorumAvailability.Add(m.QuorumAvailability)
	a.TimeToRecovery.Add(m.TimeToRecovery)
	a.RecoveryFrequency.Add(m.RecoveryFrequency)
	a.AvgNodes.Add(m.AvgNodes)
	a.Cost.Add(m.AvgCost)
	if m.ServiceLatencyMS > 0 {
		a.Latency.Add(m.ServiceLatencyMS)
	}
}

// Merge folds another accumulator's summaries into a, as if the other's
// runs had been appended to a's stream. The fleet engine folds through
// fixed-span per-cell partials merged in schedule order, so Merge sits on
// the byte-stability path: it must stay deterministic (same inputs, same
// bits) even though it is not bit-equivalent to a sequential Add fold.
func (a *Accumulator) Merge(other *Accumulator) {
	a.Availability.Merge(other.Availability)
	a.QuorumAvailability.Merge(other.QuorumAvailability)
	a.TimeToRecovery.Merge(other.TimeToRecovery)
	a.RecoveryFrequency.Merge(other.RecoveryFrequency)
	a.AvgNodes.Merge(other.AvgNodes)
	a.Cost.Merge(other.Cost)
	a.Latency.Merge(other.Latency)
}

// Runs returns the number of folded runs.
func (a *Accumulator) Runs() int64 { return a.Availability.Count }

// AggregateValue summarizes the folded runs without allocating — the form
// fleet result assembly uses once per grid cell.
func (a *Accumulator) AggregateValue() Aggregate {
	out := Aggregate{
		Availability:       a.Availability.Summary(),
		QuorumAvailability: a.QuorumAvailability.Summary(),
		TimeToRecovery:     a.TimeToRecovery.Summary(),
		RecoveryFrequency:  a.RecoveryFrequency.Summary(),
		AvgNodes:           a.AvgNodes.Summary(),
		Cost:               a.Cost.Summary(),
	}
	if a.Latency.Count > 0 {
		s := a.Latency.Summary()
		out.Latency = &s
	}
	return out
}

// tCritical95 approximates the two-sided 95% Student-t critical value by
// table lookup with the nearest smaller degrees of freedom.
func tCritical95(df int) float64 {
	if df > 49 {
		return 1.96
	}
	keys := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 14, 19, 29, 49}
	values := []float64{12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
		2.306, 2.262, 2.228, 2.145, 2.093, 2.045, 2.010}
	out := values[0]
	for i, k := range keys {
		if df >= k {
			out = values[i]
		}
	}
	return out
}
