// Package clusterbackend executes a fleet scenario against a live MinBFT
// replica group instead of the analytic emulation: N1 real replicas over
// loopback TCP, a seeded attacker walking the Table 6 campaigns on the
// emulation timeline, node controllers running the Appendix A belief
// recursion on seeded IDS observations, and recovery decisions that
// actually restart replica processes — the application domain is torn down
// and rebuilt while the USIG counter survives in the trusted domain
// (usig.ResumeHMAC), exactly the hybrid failure model of §IV.
//
// Determinism contract: the *schedule* (intrusion campaigns, crash draws,
// observations, beliefs, and therefore every recovery, eviction and
// addition decision) is a pure function of the scenario seed, which
// ScheduleDigest certifies. The *measurements* (probe latency, commit
// success under churn) are wall-clock real and vary run to run, so cluster
// results are statistically reproducible but NOT byte-stable — the fleet
// exempts them from the byte-stability CI contracts (docs/ARCHITECTURE.md).
package clusterbackend

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"tolerance/internal/attacker"
	"tolerance/internal/baselines"
	"tolerance/internal/chaos"
	"tolerance/internal/dist"
	"tolerance/internal/emulation"
	"tolerance/internal/ids"
	"tolerance/internal/minbft"
	"tolerance/internal/nodemodel"
	"tolerance/internal/recovery"
	"tolerance/internal/replica"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
	"tolerance/internal/usig"
)

// Telemetry metric names exported by cluster runs; they join the same
// collector (and therefore the run manifest and the /metrics endpoint) as
// the fleet.* series.
const (
	MetricReplicaRestarts = "cluster.replica_restarts"
	MetricReplicaCrashes  = "cluster.replica_crashes"
	MetricIntrusions      = "cluster.intrusions"
	MetricEvictions       = "cluster.evictions"
	MetricAdditions       = "cluster.additions"
	MetricConfigFailures  = "cluster.config_failures"
	MetricRestartFailures = "cluster.restart_failures"
	MetricProbeOK         = "cluster.probe_ok"
	MetricProbeFailures   = "cluster.probe_failures"
	MetricProbeLatencyUS  = "cluster.probe_latency_us"
	MetricMaxView         = "cluster.max_view"
)

// clusterKey is the shared HMAC key of the trusted components. All replicas
// of one run share it (the byzantine application domain never sees it).
var clusterKey = []byte("tolerance-cluster-backend-key-32")

// adminTimeout bounds one reconfiguration (evict/join) request.
const adminTimeout = 3 * time.Second

// Options tunes a cluster run without touching the scenario schedule.
type Options struct {
	// Telemetry receives the cluster.* series; nil records nothing.
	Telemetry *telemetry.Collector
	// Shard is the telemetry shard index (the fleet worker index).
	Shard int
	// StepInterval is the wall-clock length of one control interval
	// (default 20ms — the emulation's 60-second step compressed so a
	// smoke suite finishes in seconds).
	StepInterval time.Duration
	// ProbeTimeout bounds one probe request (default 750ms).
	ProbeTimeout time.Duration
	// Chaos, when set, wraps every replica's transport endpoint with the
	// fault plan's injector (drops, duplicates, delays, partitions …), so
	// the live MinBFT group runs over an impaired network — the §VIII-A
	// NETEM emulation, but seeded and certified. Client endpoints (probe
	// and admin) are left clean: they are the measurement harness, not the
	// system under test.
	Chaos *chaos.Plan
}

func (o *Options) applyDefaults() {
	if o.StepInterval == 0 {
		o.StepInterval = 20 * time.Millisecond
	}
	if o.ProbeTimeout == 0 {
		o.ProbeTimeout = 750 * time.Millisecond
	}
}

// Result is a cluster run's metrics plus the schedule certificate.
type Result struct {
	Metrics emulation.Metrics
	// ScheduleDigest hashes the seeded event schedule (step, event, node):
	// two runs of the same scenario produce the same digest even though
	// their wall-clock measurements differ.
	ScheduleDigest uint64
	// Restarts counts real replica process restarts (recoveries that
	// rebuilt the application domain).
	Restarts int
	// MaxView is the highest MinBFT view reached by any replica — > 0
	// means at least one view change (a crashed or silent primary was
	// deposed).
	MaxView uint64
}

// node is one live replica plus its controller-side state. The slice order
// in cluster.nodes is the rng draw order — part of the schedule contract:
// everything below the process handles (belief, compromise, crash flags) is
// a pure function of the scenario seed, while procDead tracks real-world
// process health only and never feeds back into the schedule.
type node struct {
	addr  string // member ID == TCP listen address
	ep    *transport.TCPEndpoint
	rep   *minbft.Replica
	u     *usig.USIG
	store *replica.KVStore
	// procDead marks a real process that failed to (re)start or join; the
	// schedule treats the node as alive, the measurements see it dead.
	procDead bool

	profile ids.Profile
	zh, zc  []float64 // fitted likelihood rows Ẑ(o|H), Ẑ(o|C)

	belief        float64
	phase         int
	boost         int
	obs           int
	underAttack   bool
	intrusion     attacker.Intrusion
	compromised   bool
	crashed       bool
	compromisedAt int
	lastRecover   bool
}

type cluster struct {
	sc   emulation.Scenario
	opts Options

	rng  *rand.Rand  // schedule stream (seeded by Scenario.Seed)
	wrng dist.Stream // background-workload stream
	fits *emulation.FitSet

	verifier *usig.Verifier
	registry *replica.Registry
	admin    *minbft.Client
	adminEP  *transport.TCPEndpoint
	probe    *minbft.Client
	probeEP  *transport.TCPEndpoint

	nodes  []*node
	nextID int

	poisson  dist.PoissonSampler
	binom    dist.BinomialSampler
	sessions int

	digest *fnv64

	// metric state, mirroring the emulation runner
	m              emulation.Metrics
	recoveryTimes  []float64
	availableSteps int
	quorumSteps    int
	nodeSteps      int
	totalNodes     float64
	costSum        float64
	obsSum         float64
	obsCount       int
	latencySumMS   float64
	latencyCount   int
	restarts       int

	tm clusterMetrics
}

// clusterMetrics caches telemetry handles; every field tolerates the
// zero-collector case by staying nil.
type clusterMetrics struct {
	shard     int
	restarts  *telemetry.Counter
	crashes   *telemetry.Counter
	intrus    *telemetry.Counter
	evicts    *telemetry.Counter
	adds      *telemetry.Counter
	cfgFail   *telemetry.Counter
	restFail  *telemetry.Counter
	probeOK   *telemetry.Counter
	probeFail *telemetry.Counter
	latency   *telemetry.Histogram
	maxView   *telemetry.Gauge
}

func newClusterMetrics(col *telemetry.Collector, shard int) clusterMetrics {
	if col == nil {
		return clusterMetrics{}
	}
	return clusterMetrics{
		shard:     shard,
		restarts:  col.Counter(MetricReplicaRestarts),
		crashes:   col.Counter(MetricReplicaCrashes),
		intrus:    col.Counter(MetricIntrusions),
		evicts:    col.Counter(MetricEvictions),
		adds:      col.Counter(MetricAdditions),
		cfgFail:   col.Counter(MetricConfigFailures),
		restFail:  col.Counter(MetricRestartFailures),
		probeOK:   col.Counter(MetricProbeOK),
		probeFail: col.Counter(MetricProbeFailures),
		latency:   col.Histogram(MetricProbeLatencyUS, telemetry.DurationBuckets()),
		maxView:   col.Gauge(MetricMaxView),
	}
}

func (t *clusterMetrics) inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc(t.shard)
	}
}

// fnv64 accumulates the schedule digest.
type fnv64 struct{ h uint64 }

func newFNV64() *fnv64 {
	f := fnv.New64a()
	return &fnv64{h: f.Sum64()}
}

func (f *fnv64) event(step int, kind byte, nodeIdx int) {
	const prime = 1099511628211
	f.h = (f.h ^ uint64(step)) * prime
	f.h = (f.h ^ uint64(kind)) * prime
	f.h = (f.h ^ uint64(nodeIdx)) * prime
}

// Schedule event kinds folded into ScheduleDigest.
const (
	evIntrusionStart = byte(1)
	evCompromised    = byte(2)
	evCrash          = byte(3)
	evRecover        = byte(4)
	evEvict          = byte(5)
	evAdd            = byte(6)
	evClean          = byte(7)
)

// Run executes the scenario against a live replica group. The context
// cancels between steps: the run returns ctx.Err() with partial metrics
// discarded, never a half-measured Metrics.
func Run(ctx context.Context, sc emulation.Scenario, opts Options) (Result, error) {
	opts.applyDefaults()
	c, err := boot(sc, opts)
	if err != nil {
		return Result{}, err
	}
	defer c.close()

	ticker := time.NewTicker(opts.StepInterval)
	defer ticker.Stop()
	for t := 1; t <= c.sc.Steps; t++ {
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-ticker.C:
		}
		c.step(t)
	}
	return c.finish(), nil
}

// boot validates the scenario and starts the replica group, the admin
// client and the probe client.
func boot(sc emulation.Scenario, opts Options) (*cluster, error) {
	if err := sc.ApplyDefaults(); err != nil {
		return nil, err
	}
	if sc.N1 < 2 {
		return nil, fmt.Errorf("%w: N1 = %d (need >= 2 live replicas)", emulation.ErrBadScenario, sc.N1)
	}
	fits, err := sc.ResolveFits()
	if err != nil {
		return nil, err
	}
	verifier, err := usig.NewHMACVerifier(clusterKey)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		sc:       sc,
		opts:     opts,
		rng:      rand.New(rand.NewSource(sc.Seed)),
		fits:     fits,
		verifier: verifier,
		registry: replica.NewRegistry(),
		digest:   newFNV64(),
		tm:       newClusterMetrics(opts.Telemetry, opts.Shard),
	}
	c.wrng.Seed(emulation.WorkloadStreamSeed(sc.Seed))
	c.poisson.Reset(sc.Workload.Lambda)
	c.binom.Reset(1 / sc.Workload.MeanServiceSteps)

	// Endpoints first: member IDs are the TCP listen addresses, so the
	// full member list must exist before any replica starts.
	eps := make([]*transport.TCPEndpoint, 0, sc.N1)
	members := make([]string, 0, sc.N1)
	for i := 0; i < sc.N1; i++ {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			for _, e := range eps {
				_ = e.Close()
			}
			return nil, fmt.Errorf("clusterbackend: listen replica %d: %w", i, err)
		}
		eps = append(eps, ep)
		members = append(members, ep.Addr())
	}
	for i, ep := range eps {
		phase := 0
		if sc.DeltaR != recovery.InfiniteDeltaR {
			phase = (i * sc.DeltaR) / sc.N1 // stagger, like the emulation
		}
		n := c.newNode(phase, c.rng.Intn(c.fits.Len()))
		if err := c.startReplica(n, ep, members, 0); err != nil {
			for _, e := range eps[i:] {
				_ = e.Close()
			}
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}
	c.nextID = sc.N1

	c.admin, c.adminEP, err = c.newClient(adminTimeout)
	if err != nil {
		c.close()
		return nil, err
	}
	c.probe, c.probeEP, err = c.newClient(opts.ProbeTimeout)
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// newClient starts a loopback client whose signer ID is its own listen
// address — replicas reply by dialing the request's ClientID, so the ID
// must be dialable.
func (c *cluster) newClient(timeout time.Duration) (*minbft.Client, *transport.TCPEndpoint, error) {
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("clusterbackend: listen client: %w", err)
	}
	signer, err := replica.NewSigner(ep.Addr())
	if err != nil {
		_ = ep.Close()
		return nil, nil, err
	}
	if err := c.registry.Register(ep.Addr(), signer.PublicKey()); err != nil {
		_ = ep.Close()
		return nil, nil, err
	}
	cl, err := minbft.NewClient(signer, ep, c.members(), c.tolerance())
	if err != nil {
		_ = ep.Close()
		return nil, nil, err
	}
	cl.Timeout = timeout
	return cl, ep, nil
}

// newNode is a fresh schedule node on catalog container ci with BTR
// calendar offset phase; it has no replica process until startReplica.
func (c *cluster) newNode(phase, ci int) *node {
	n := &node{belief: c.sc.Params.PA, phase: phase, compromisedAt: -1}
	c.setContainer(n, ci)
	return n
}

// setContainer installs catalog container ci on n: its alert profile and
// fitted likelihood rows. The caller draws ci from the schedule stream.
func (c *cluster) setContainer(n *node, ci int) {
	fit := c.fits.Fitted(ci)
	n.profile = c.fits.Container(ci).Profile
	n.zh, n.zc = fit.Healthy.Probs(), fit.Compromised.Probs()
}

// startReplica boots n's replica process on ep — the one place a live
// replica is built, at boot, on restart and on addition. usigCounter > 0
// resumes the trusted counter of a previous incarnation (a restart). On
// error n is unchanged and the caller still owns ep.
func (c *cluster) startReplica(n *node, ep *transport.TCPEndpoint, members []string, usigCounter uint64) error {
	addr := ep.Addr()
	var u *usig.USIG
	var err error
	if usigCounter > 0 {
		u, err = usig.ResumeHMAC(addr, clusterKey, usigCounter)
	} else {
		u, err = usig.NewHMAC(addr, clusterKey)
	}
	if err != nil {
		return err
	}
	store := replica.NewKVStore()
	rep, err := minbft.NewReplica(minbft.Config{
		ID:             addr,
		Members:        members,
		K:              c.sc.K,
		Endpoint:       c.opts.Chaos.WrapEndpoint(ep),
		USIG:           u,
		Verifier:       c.verifier,
		Registry:       c.registry,
		Store:          store,
		RequestTimeout: 250 * time.Millisecond,
		TickInterval:   5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	n.addr, n.ep, n.rep, n.u, n.store, n.procDead = addr, ep, rep, u, store, false
	return nil
}

// members returns the current member list in node order.
func (c *cluster) members() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.addr
	}
	return out
}

// tolerance is MinBFT's f for the current group size: N = 2f + k + 1.
func (c *cluster) tolerance() int {
	f := (len(c.nodes) - 1 - c.sc.K) / 2
	if f < 0 {
		f = 0
	}
	return f
}

// realMembers returns the membership the live group has agreed on (from
// any running replica), falling back to the bookkeeping list when no
// process answers. The agreed list is the truth after evict/join ops.
func (c *cluster) realMembers() ([]string, int) {
	for _, n := range c.nodes {
		if !n.crashed && !n.procDead && n.rep != nil {
			return n.rep.Members(), n.rep.Tolerance()
		}
	}
	return c.members(), c.tolerance()
}

func (c *cluster) refreshClients() {
	members, f := c.realMembers()
	if len(members) == 0 {
		return
	}
	c.admin.UpdateMembership(members, f)
	c.probe.UpdateMembership(members, f)
}

// step advances the cluster one control interval, mirroring the emulation's
// six stages with real consensus-level effects.
func (c *cluster) step(t int) {
	sc := &c.sc
	rng := c.rng

	// Background client population drives the false-alert rate, same
	// two-stream derivation as the emulation.
	c.sessions += c.poisson.Sample(&c.wrng)
	c.sessions -= c.binom.Sample(&c.wrng, c.sessions)
	load := float64(c.sessions) / (sc.Workload.Lambda * sc.Workload.MeanServiceSteps)
	pFalse := 0.1 * load

	// 1. Seeded IDS observations + Appendix A belief recursion, strictly
	// in node order (the rng draw order is the schedule contract).
	for _, n := range c.nodes {
		obs := n.profile.Sample(rng, n.compromised)
		obs += n.boost
		n.boost = 0
		if dist.SampleBernoulli(rng, pFalse) {
			obs++
		}
		if obs >= ids.AlertSupport {
			obs = ids.AlertSupport - 1
		}
		n.obs = obs
		c.obsSum += float64(obs)
		c.obsCount++
		action := nodemodel.Wait
		if n.lastRecover {
			action = nodemodel.Recover
		}
		n.belief = emulation.UpdateBeliefFitted(sc.Params, n.zh, n.zc, n.belief, action, obs)
		n.lastRecover = false
	}

	// 2. Action selection: forced BTR calendar first, then the policy's
	// threshold recoveries in descending belief order, K-capped.
	recovering := make([]int, 0, sc.K)
	forced := make(map[int]bool, sc.K)
	if sc.Policy.UsesBTR() && sc.DeltaR != recovery.InfiniteDeltaR {
		for i, n := range c.nodes {
			if (t+n.phase)%sc.DeltaR == 0 && len(recovering) < sc.K {
				recovering = append(recovering, i)
				forced[i] = true
			}
		}
	}
	var candidates []int
	for i, n := range c.nodes {
		if forced[i] {
			continue
		}
		windowPos := t + n.phase
		if sc.DeltaR != recovery.InfiniteDeltaR {
			windowPos = (t + n.phase) % sc.DeltaR
			if windowPos == 0 {
				continue
			}
		}
		action := sc.Policy.NodeAction(baselines.NodeContext{
			Belief:    n.belief,
			Obs:       n.obs,
			WindowPos: windowPos,
			DeltaR:    sc.DeltaR,
		})
		if action == nodemodel.Recover {
			candidates = append(candidates, i)
		}
	}
	sort.SliceStable(candidates, func(a, b int) bool {
		return c.nodes[candidates[a]].belief > c.nodes[candidates[b]].belief
	})
	for _, i := range candidates {
		if len(recovering) >= sc.K {
			break
		}
		recovering = append(recovering, i)
	}

	// 3. Apply recoveries: REAL replica restarts. The rng draws inside
	// restartNode stay on the schedule stream regardless of whether the
	// process restart succeeds, so the schedule never forks on wall-clock
	// outcomes.
	for _, i := range recovering {
		c.digest.event(t, evRecover, i)
		c.restartNode(t, c.nodes[i])
	}

	// 4. System controller: evict crashed members through consensus, then
	// maybe grow the group. A failed evict leaves the node in place (it
	// keeps counting against availability) and retries next step.
	evicted := c.evictCrashed(t)
	healthyEstimate := 0.0
	obsLane := make([]int, len(c.nodes))
	for i, n := range c.nodes {
		healthyEstimate += 1 - n.belief
		obsLane[i] = n.obs
	}
	est := int(math.Floor(healthyEstimate))
	if est > sc.SMax {
		est = sc.SMax
	}
	meanObs := 0.0
	if c.obsCount > 0 {
		meanObs = c.obsSum / float64(c.obsCount)
	}
	if len(c.nodes) < sc.SMax && sc.Policy.AddNode(baselines.SystemContext{
		HealthyEstimate: est,
		AliveNodes:      len(c.nodes),
		Observations:    obsLane,
		MeanObs:         meanObs,
		Rng:             rng,
	}) {
		c.digest.event(t, evAdd, c.nextID)
		c.addNode()
	}

	// 5. Metrics. Availability is REAL: one probe write per step must
	// commit within the probe timeout. The structural quorum condition
	// (Prop. 1) is tracked alongside; crashed-but-unevicted members count
	// as failed.
	compromised, failed := 0, 0
	for _, n := range c.nodes {
		switch {
		case n.lastRecover:
			c.costSum++
		case n.compromised:
			c.costSum += sc.Params.Eta
		}
		if n.compromised {
			compromised++
		}
		if n.crashed {
			failed++
		}
	}
	if ok := c.probeOnce(); ok {
		c.availableSteps++
	}
	if compromised+failed+evicted <= sc.F && len(c.nodes)-failed >= 2*sc.F+1+sc.K {
		c.quorumSteps++
	}
	c.nodeSteps += len(c.nodes)
	c.totalNodes += float64(len(c.nodes))

	// 6. Environment transitions on the schedule stream: crashes stop the
	// real process, completed intrusions flip the replica's protocol-level
	// behaviour (silent or garbage), software updates silently clean.
	for i, n := range c.nodes {
		if n.crashed {
			continue
		}
		if !n.compromised {
			if dist.SampleBernoulli(rng, sc.Params.PC1) {
				c.digest.event(t, evCrash, i)
				c.crashNode(n)
				continue
			}
			if !n.underAttack && dist.SampleBernoulli(rng, sc.Params.PA) {
				if err := n.intrusion.Begin(1 + rng.Intn(attacker.NumCampaigns())); err == nil {
					n.underAttack = true
					c.digest.event(t, evIntrusionStart, i)
				}
			}
			if n.underAttack {
				n.boost += n.intrusion.Advance(rng)
				if n.intrusion.Done() {
					n.compromised = true
					n.compromisedAt = t
					c.m.Intrusions++
					c.tm.inc(c.tm.intrus)
					c.digest.event(t, evCompromised, i)
					if n.rep != nil {
						switch n.intrusion.Behaviour {
						case attacker.StaySilent:
							n.rep.SetByzantine(minbft.Silent)
						case attacker.SendRandom:
							n.rep.SetByzantine(minbft.Garbage)
						}
					}
				}
			}
			continue
		}
		// Compromised.
		if dist.SampleBernoulli(rng, sc.Params.PC2) {
			c.digest.event(t, evCrash, i)
			if n.compromisedAt >= 0 {
				c.recoveryTimes = append(c.recoveryTimes, recovery.NoRecoveryPenalty)
				n.compromisedAt = -1
			}
			c.crashNode(n)
			continue
		}
		if dist.SampleBernoulli(rng, sc.Params.PU) {
			c.digest.event(t, evClean, i)
			n.compromised = false
			n.underAttack = false
			n.compromisedAt = -1
			if n.rep != nil {
				n.rep.SetByzantine(minbft.Honest)
			}
		}
	}
}

// probeOnce submits one write through consensus and records the real
// latency; failure (timeout, lost quorum) is a real unavailability sample.
func (c *cluster) probeOnce() bool {
	start := time.Now()
	_, err := c.probe.Submit(replica.Op{
		Type: replica.OpWrite, Key: "cluster-probe", Value: fmt.Sprintf("t%d", c.nodeSteps),
	})
	elapsed := time.Since(start)
	if c.tm.latency != nil {
		c.tm.latency.Observe(c.tm.shard, elapsed.Nanoseconds())
	}
	if err != nil {
		c.tm.inc(c.tm.probeFail)
		return false
	}
	c.tm.inc(c.tm.probeOK)
	c.latencySumMS += float64(elapsed.Microseconds()) / 1000.0
	c.latencyCount++
	return true
}

// restartNode rebuilds a replica's application domain in place: the old
// process stops, the endpoint re-listens on the same address, a fresh
// container image is drawn, and the new process resumes the trusted USIG
// counter and state-syncs from its peers (§VII-C). Crashed nodes restart
// too — recovery doubles as repair, clearing the crash. Every schedule
// effect (rng draws, belief reset, compromise clearing) applies whether or
// not the real restart succeeds, so the seeded schedule never forks on a
// wall-clock outcome; a failed restart only marks the process dead.
func (c *cluster) restartNode(t int, n *node) {
	// Schedule-stream draw first, unconditionally.
	c.setContainer(n, c.rng.Intn(c.fits.Len()))

	c.m.Recoveries++
	if n.compromisedAt >= 0 {
		c.recoveryTimes = append(c.recoveryTimes, float64(t-n.compromisedAt))
		n.compromisedAt = -1
	}
	n.belief = c.sc.Params.PA
	n.crashed = false
	n.compromised = false
	n.underAttack = false
	n.boost = 0
	n.lastRecover = true

	var counter uint64
	if n.u != nil {
		counter = n.u.Counter()
	}
	if n.rep != nil {
		n.rep.Stop()
	}
	if n.ep != nil {
		_ = n.ep.Close()
	}
	ep, err := relisten(n.addr)
	if err != nil {
		c.tm.inc(c.tm.restFail)
		n.procDead = true
		return
	}
	members, _ := c.realMembers()
	if err := c.startReplica(n, ep, members, counter); err != nil {
		c.tm.inc(c.tm.restFail)
		_ = ep.Close()
		n.procDead = true
		return
	}
	n.rep.RequestStateSync(1)
	c.restarts++
	c.tm.inc(c.tm.restarts)
}

// relisten rebinds a closed listen address. The old listener just closed,
// so the port is free modulo scheduler timing; a short bounded retry covers
// the gap.
func relisten(addr string) (*transport.TCPEndpoint, error) {
	var lastErr error
	for attempt := 0; attempt < 50; attempt++ {
		ep, err := transport.ListenTCP(addr)
		if err == nil {
			return ep, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return nil, fmt.Errorf("clusterbackend: relisten %s: %w", addr, lastErr)
}

// crashNode stops the real process. Peers' sends start failing (bounded by
// the transport deadlines) and, if the crashed node led the view, the
// request timeout deposes it through a view change.
func (c *cluster) crashNode(n *node) {
	n.crashed = true
	n.compromised = false
	n.underAttack = false
	if n.rep != nil {
		n.rep.Stop()
	}
	if n.ep != nil {
		_ = n.ep.Close()
	}
	c.tm.inc(c.tm.crashes)
}

// evictCrashed removes crashed members and returns the number evicted this
// step. Removal from the node set is schedule-driven (crash draws are
// seeded, so the set of evicted nodes is too); the consensus-level config
// op (Fig 17f) is the real-world effect and is best-effort — a failed
// Submit leaves a dead member in the live group's membership (it consumes
// fault budget, a real degradation the probes will see) and is counted,
// never retried against the schedule.
func (c *cluster) evictCrashed(t int) int {
	evicted := 0
	kept := c.nodes[:0]
	for i, n := range c.nodes {
		if !n.crashed {
			kept = append(kept, n)
			continue
		}
		c.digest.event(t, evEvict, i)
		c.m.Evictions++
		c.tm.inc(c.tm.evicts)
		evicted++
		op, err := minbft.EncodeConfigOp("evict", n.addr)
		if err == nil {
			_, err = c.admin.Submit(op)
		}
		if err != nil {
			c.tm.inc(c.tm.cfgFail)
		}
	}
	c.nodes = kept
	if evicted > 0 {
		c.refreshClients()
	}
	return evicted
}

// addNode grows the group (Fig 17e): a new replica starts with the
// enlarged membership and joins through consensus. The node joins the
// schedule unconditionally — real-world start/join failures leave a
// schedule node with a dead process (procDead), never a forked schedule.
func (c *cluster) addNode() {
	// Schedule-stream draws first, unconditionally.
	phase := 0
	if c.sc.DeltaR != recovery.InfiniteDeltaR {
		phase = c.rng.Intn(c.sc.DeltaR)
	}
	n := c.newNode(phase, c.rng.Intn(c.fits.Len()))
	c.nextID++
	c.m.Additions++
	c.tm.inc(c.tm.adds)

	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		c.tm.inc(c.tm.cfgFail)
		n.addr = fmt.Sprintf("dead-node-%d", c.nextID)
		n.procDead = true
		c.nodes = append(c.nodes, n)
		return
	}
	members, _ := c.realMembers()
	if err := c.startReplica(n, ep, append(members, ep.Addr()), 0); err != nil {
		c.tm.inc(c.tm.cfgFail)
		n.addr = ep.Addr()
		_ = ep.Close()
		n.procDead = true
		c.nodes = append(c.nodes, n)
		return
	}
	c.nodes = append(c.nodes, n)

	op, err := minbft.EncodeConfigOp("join", ep.Addr())
	if err == nil {
		_, err = c.admin.Submit(op)
	}
	if err != nil {
		// The process runs but never joined the group; it stays a
		// schedule node whose messages the members ignore.
		c.tm.inc(c.tm.cfgFail)
		return
	}
	n.rep.RequestStateSync(1)
	c.refreshClients()
}

// finish assembles the metrics exactly as the emulation does, plus the
// real-measurement extras.
func (c *cluster) finish() Result {
	sc := &c.sc
	m := &c.m
	for _, n := range c.nodes {
		if n.compromisedAt >= 0 {
			c.recoveryTimes = append(c.recoveryTimes, recovery.NoRecoveryPenalty)
		}
	}
	m.Availability = float64(c.availableSteps) / float64(sc.Steps)
	m.QuorumAvailability = float64(c.quorumSteps) / float64(sc.Steps)
	if c.nodeSteps > 0 {
		m.RecoveryFrequency = float64(m.Recoveries) / float64(c.nodeSteps)
		m.AvgCost = c.costSum / float64(c.nodeSteps)
	}
	if len(c.recoveryTimes) > 0 {
		sum := 0.0
		for _, v := range c.recoveryTimes {
			sum += v
		}
		m.TimeToRecovery = sum / float64(len(c.recoveryTimes))
	}
	m.AvgNodes = c.totalNodes / float64(sc.Steps)
	if c.latencyCount > 0 {
		m.ServiceLatencyMS = c.latencySumMS / float64(c.latencyCount)
	}
	maxView := uint64(0)
	for _, n := range c.nodes {
		if n.crashed || n.rep == nil {
			continue
		}
		if v := n.rep.View(); v > maxView {
			maxView = v
		}
	}
	if c.tm.maxView != nil && float64(maxView) > c.tm.maxView.Value() {
		c.tm.maxView.Set(float64(maxView))
	}
	return Result{
		Metrics:        *m,
		ScheduleDigest: c.digest.h,
		Restarts:       c.restarts,
		MaxView:        maxView,
	}
}

// close stops every replica and client endpoint.
func (c *cluster) close() {
	for _, n := range c.nodes {
		if n.rep != nil {
			n.rep.Stop()
		}
		if n.ep != nil {
			_ = n.ep.Close()
		}
	}
	if c.adminEP != nil {
		_ = c.adminEP.Close()
	}
	if c.probeEP != nil {
		_ = c.probeEP.Close()
	}
}
