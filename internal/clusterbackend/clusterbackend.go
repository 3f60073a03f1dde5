// Package clusterbackend executes a fleet scenario against a live MinBFT
// replica group instead of the analytic emulation. The control loop is the
// emulation's own (emulation.Runner: node controllers running the Appendix
// A belief recursion and the BTR calendar, a system controller evicting
// crashed nodes and running the add rule), stepped once per wall-clock
// interval; the replica group is its emulation.Plant. Each decision the
// loop makes lands on real processes: N1 replicas over loopback TCP,
// compromises that turn a replica silent or garbage, crashes that stop it,
// recoveries that restart it — the application domain is torn down and
// rebuilt while the USIG counter survives in the trusted domain
// (usig.ResumeHMAC), exactly the hybrid failure model of §IV — and
// evictions and additions committed as config ops.
//
// Determinism contract: the loop makes every draw and the cluster none, so
// a cluster run's metrics equal emulation.Run's for the same scenario with
// ==, except Availability and ServiceLatencyMS, which one probe write per
// step measures on the replicas. Those are wall-clock real and vary run to
// run, so cluster results are statistically reproducible but NOT
// byte-stable — the fleet exempts them from the byte-stability CI
// contracts (docs/ARCHITECTURE.md).
package clusterbackend

import (
	"context"
	"fmt"
	"time"

	"tolerance/internal/attacker"
	"tolerance/internal/chaos"
	"tolerance/internal/emulation"
	"tolerance/internal/minbft"
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

// Result is a cluster run's metrics plus what the replicas did.
type Result struct {
	// Metrics are the emulation's for the same scenario, draw for draw,
	// except Availability (the share of steps whose probe committed) and
	// ServiceLatencyMS (the committed probes' mean latency), which the
	// replicas measure.
	Metrics emulation.Metrics
	// Restarts counts real replica process restarts (recoveries that
	// rebuilt the application domain).
	Restarts int
	// MaxView is the highest MinBFT view reached by any replica — > 0
	// means at least one view change (a crashed or silent primary was
	// deposed).
	MaxView uint64
}

// proc is the live replica process of one emulation node.
type proc struct {
	addr string // member ID == TCP listen address
	ep   *transport.TCPEndpoint
	rep  *minbft.Replica
	u    *usig.USIG
	// crashed marks a process the schedule stopped; dead marks one that
	// failed to (re)start or join. The schedule never sees either.
	crashed, dead bool
}

// cluster is the replica group as the control loop's emulation.Plant: the
// runner draws the schedule and makes every decision, the cluster carries
// each one out on its replicas and probes the service once a step.
type cluster struct {
	sc   emulation.Scenario
	opts Options
	run  *emulation.Runner

	verifier *usig.Verifier
	registry *replica.Registry
	admin    *minbft.Client
	adminEP  *transport.TCPEndpoint
	probe    *minbft.Client
	probeEP  *transport.TCPEndpoint

	// procs is indexed by node id; an evicted node's entry is nil, so the
	// non-nil entries in id order are the membership in node order.
	procs []*proc

	probes       int // probes issued (one per step)
	probeOK      int
	latencySumMS float64
	restarts     int

	tm clusterMetrics
}

// clusterMetrics caches telemetry handles.
type clusterMetrics struct {
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

func newClusterMetrics(col *telemetry.Collector) clusterMetrics {
	return clusterMetrics{
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

// Run executes the scenario against a live replica group: the emulation's
// control loop, one step per StepInterval, with the cluster as its plant.
// The context cancels between steps: the run returns ctx.Err() with
// partial metrics discarded, never a half-measured Metrics.
func Run(ctx context.Context, sc emulation.Scenario, opts Options) (Result, error) {
	opts.applyDefaults()
	c, err := boot(sc, opts)
	if err != nil {
		return Result{}, err
	}
	defer c.close()

	ticker := time.NewTicker(opts.StepInterval)
	defer ticker.Stop()
	for more := true; more; {
		select {
		case <-ctx.Done():
			return Result{}, ctx.Err()
		case <-ticker.C:
		}
		more = c.run.Step()
	}
	return c.finish(), nil
}

// boot validates the scenario, starts the control loop and the replica
// group of its initial nodes, the admin client and the probe client.
func boot(sc emulation.Scenario, opts Options) (*cluster, error) {
	if err := sc.ApplyDefaults(); err != nil {
		return nil, err
	}
	if sc.N1 < 2 {
		return nil, fmt.Errorf("%w: N1 = %d (need >= 2 live replicas)", emulation.ErrBadScenario, sc.N1)
	}
	verifier, err := usig.NewHMACVerifier(clusterKey)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		sc:       sc,
		opts:     opts,
		run:      emulation.NewRunner(),
		verifier: verifier,
		registry: replica.NewRegistry(),
		tm:       newClusterMetrics(opts.Telemetry),
	}
	if err := c.run.Start(sc, c); err != nil {
		return nil, err
	}

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
		p := &proc{}
		if err := c.startReplica(p, ep, members, 0); err != nil {
			for _, e := range eps[i:] {
				_ = e.Close()
			}
			c.close()
			return nil, err
		}
		c.procs = append(c.procs, p)
	}

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
	members, f := c.realMembers()
	cl, err := minbft.NewClient(signer, ep, members, f)
	if err != nil {
		_ = ep.Close()
		return nil, nil, err
	}
	cl.Timeout = timeout
	return cl, ep, nil
}

// startReplica boots p's replica process on ep — the one place a live
// replica is built, at boot, on restart and on addition. usigCounter > 0
// resumes the trusted counter of a previous incarnation (a restart). On
// error p is unchanged and the caller still owns ep.
func (c *cluster) startReplica(p *proc, ep *transport.TCPEndpoint, members []string, usigCounter uint64) error {
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
	rep, err := minbft.NewReplica(minbft.Config{
		ID:       addr,
		Members:  members,
		K:        c.sc.K,
		Endpoint: c.opts.Chaos.WrapEndpoint(ep),
		USIG:     u,
		Verifier: c.verifier,
		Registry: c.registry,
		Store:    replica.NewKVStore(),
	})
	if err != nil {
		return err
	}
	p.addr, p.ep, p.rep, p.u, p.crashed, p.dead = addr, ep, rep, u, false, false
	return nil
}

// realMembers returns the membership the live group has agreed on (from
// any running replica), falling back to the bookkeeping list — the node
// set in node order and MinBFT's f = (N − 1 − k)/2 for it — when no
// process answers. The agreed list is the truth after evict/join ops.
func (c *cluster) realMembers() ([]string, int) {
	var members []string
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		if !p.crashed && !p.dead && p.rep != nil {
			return p.rep.Members(), p.rep.Tolerance()
		}
		members = append(members, p.addr)
	}
	return members, max((len(members)-1-c.sc.K)/2, 0)
}

func (c *cluster) refreshClients() {
	members, f := c.realMembers()
	if len(members) == 0 {
		return
	}
	c.admin.UpdateMembership(members, f)
	c.probe.UpdateMembership(members, f)
}

// Recover rebuilds node id's application domain in place: the old process
// stops, the endpoint re-listens on the same address, and the new process
// resumes the trusted USIG counter and state-syncs from its peers
// (§VII-C). A crashed node restarts too — recovery doubles as repair. A
// failed restart only marks the process dead.
func (c *cluster) Recover(id int) {
	p := c.procs[id]
	var counter uint64
	if p.u != nil {
		counter = p.u.Counter()
	}
	if p.rep != nil {
		p.rep.Stop()
	}
	if p.ep != nil {
		_ = p.ep.Close()
	}
	ep, err := relisten(p.addr)
	if err != nil {
		c.tm.restFail.Inc()
		p.dead = true
		return
	}
	members, _ := c.realMembers()
	if err := c.startReplica(p, ep, members, counter); err != nil {
		c.tm.restFail.Inc()
		_ = ep.Close()
		p.dead = true
		return
	}
	p.rep.RequestStateSync(1)
	c.restarts++
	c.tm.restarts.Inc()
}

// Measure submits one write through consensus and records the real
// latency; failure (timeout, lost quorum) is a real unavailability sample.
func (c *cluster) Measure() {
	c.probes++
	start := time.Now()
	_, err := c.probe.Submit(replica.Op{
		Type: replica.OpWrite, Key: "cluster-probe", Value: fmt.Sprintf("t%d", c.probes),
	})
	elapsed := time.Since(start)
	c.tm.latency.Observe(elapsed.Nanoseconds())
	if err != nil {
		c.tm.probeFail.Inc()
		return
	}
	c.tm.probeOK.Inc()
	c.probeOK++
	c.latencySumMS += float64(elapsed.Microseconds()) / 1000.0
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

// Crash stops node id's process. Peers' sends start failing (bounded by
// the transport deadlines) and, if the node led the view, the request
// timeout deposes it through a view change.
func (c *cluster) Crash(id int) {
	p := c.procs[id]
	p.crashed = true
	if p.rep != nil {
		p.rep.Stop()
	}
	if p.ep != nil {
		_ = p.ep.Close()
	}
	c.tm.crashes.Inc()
}

// Compromise flips node id's replica to the attacker's protocol-level
// behaviour: silent or garbage.
func (c *cluster) Compromise(id int, b attacker.Behaviour) {
	c.tm.intrus.Inc()
	p := c.procs[id]
	if p.rep == nil {
		return
	}
	switch b {
	case attacker.StaySilent:
		p.rep.SetByzantine(minbft.Silent)
	case attacker.SendRandom:
		p.rep.SetByzantine(minbft.Garbage)
	}
}

// Clean returns node id's replica to honest behaviour.
func (c *cluster) Clean(id int) {
	if p := c.procs[id]; p.rep != nil {
		p.rep.SetByzantine(minbft.Honest)
	}
}

// Evict removes crashed node id from the group through a committed config
// op (Fig 17f). The op is best-effort: a failed Submit leaves a dead
// member in the live group's membership (it consumes fault budget, a real
// degradation the probes will see) and is counted, never retried.
func (c *cluster) Evict(id int) {
	addr := c.procs[id].addr
	c.procs[id] = nil
	c.tm.evicts.Inc()
	op, err := minbft.EncodeConfigOp("evict", addr)
	if err == nil {
		_, err = c.admin.Submit(op)
	}
	if err != nil {
		c.tm.cfgFail.Inc()
	}
	c.refreshClients()
}

// Add grows the group (Fig 17e): node id's replica starts with the
// enlarged membership and joins through consensus. A process that fails
// to start or join stays in the node set as a dead process.
func (c *cluster) Add(id int) {
	c.tm.adds.Inc()
	p := &proc{}
	c.procs = append(c.procs, p) // ids are issued in order: this is procs[id]
	ep, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		c.tm.cfgFail.Inc()
		p.addr = fmt.Sprintf("dead-node-%d", id)
		p.dead = true
		return
	}
	members, _ := c.realMembers()
	if err := c.startReplica(p, ep, append(members, ep.Addr()), 0); err != nil {
		c.tm.cfgFail.Inc()
		p.addr = ep.Addr()
		_ = ep.Close()
		p.dead = true
		return
	}
	op, err := minbft.EncodeConfigOp("join", p.addr)
	if err == nil {
		_, err = c.admin.Submit(op)
	}
	if err != nil {
		// The process runs but never joined the group; it stays a node
		// whose messages the members ignore.
		c.tm.cfgFail.Inc()
		return
	}
	p.rep.RequestStateSync(1)
	c.refreshClients()
}

// finish ends the control loop and overwrites its structural T(A) with the
// probes' measured availability and latency.
func (c *cluster) finish() Result {
	m := c.run.Finish()
	m.Availability = float64(c.probeOK) / float64(c.sc.Steps)
	if c.probeOK > 0 {
		m.ServiceLatencyMS = c.latencySumMS / float64(c.probeOK)
	}
	maxView := uint64(0)
	for _, p := range c.procs {
		if p == nil || p.crashed || p.rep == nil {
			continue
		}
		maxView = max(maxView, p.rep.View())
	}
	c.tm.maxView.Max(float64(maxView))
	return Result{Metrics: m, Restarts: c.restarts, MaxView: maxView}
}

// close stops every replica and client endpoint.
func (c *cluster) close() {
	for _, p := range c.procs {
		if p == nil {
			continue
		}
		if p.rep != nil {
			p.rep.Stop()
		}
		if p.ep != nil {
			_ = p.ep.Close()
		}
	}
	if c.adminEP != nil {
		_ = c.adminEP.Close()
	}
	if c.probeEP != nil {
		_ = c.probeEP.Close()
	}
}
