package fleet

// The lease protocol's deterministic test harness: one coordinator machine
// and several worker sessions over one in-flight queue. Every step is a
// choice drawn from the seed: the delivery of one queued frame, which the
// network may drop, duplicate or take out of order; the clock moving on,
// where every machine ticks on its own skewed ticker; or one worker's
// engine handing over its next Records batch or finishing its lease. The
// schedule also kills workers without a Goodbye and replaces them, lets
// workers leave with a Goodbye mid-lease, and brings workers in after the
// first grant. A lease runs through plan.execute outside the session, and
// its records come back as batch events. There is no goroutine, no sleep
// and no wall clock, so a seed replays its trace byte for byte.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tolerance/internal/fleet/proto"
	"tolerance/internal/telemetry"
)

const (
	// leaseSeeds is how many schedules each harness test runs.
	leaseSeeds = 50
	// leaseStepBudget bounds one schedule; a run that needs more fails.
	leaseStepBudget = 200_000
	// harnessHeartbeat is the coordinator's heartbeat on the harness; the
	// clock is virtual, so it costs no time.
	harnessHeartbeat = 200 * time.Millisecond
	coordAddr        = "coord"
)

// leaseSchedule is what a harness run draws its choices from.
type leaseSchedule struct {
	workers   int // workers at the start
	leaseSize int
	batch     int // records per Records batch
	// loss and dup are the chances that a delivered frame is dropped, or
	// stays queued to be delivered once more; reorder is the chance that a
	// delivery takes a random queued frame instead of the oldest.
	loss, dup, reorder float64
	kills              int // workers killed mid-lease without a Goodbye, each replaced
	// killTogether kills them in one step, once that many are mid-lease.
	killTogether bool
	goodbyes     int // workers that leave mid-lease with a Goodbye
	late         int // workers that join after the first grant
	// joinAfter holds the first workers back this long.
	joinAfter time.Duration
	// completed resumes the coordinator from these records.
	completed *RecordTable
	// mute, when positive, silences worker i's sends for this long from
	// its (i+1)-th Records frame on, that frame included.
	mute time.Duration
	// bogus leases are slipped in ahead of the first lease the
	// coordinator sends.
	bogus []proto.Lease
}

// chaotic is a schedule with every fault: drops, duplicates, reorders,
// a kill and its replacement, a Goodbye mid-lease and two late joiners.
var chaotic = leaseSchedule{
	workers: 3, leaseSize: 3, batch: 2,
	loss: 0.1, dup: 0.1, reorder: 0.3,
	kills: 1, goodbyes: 1, late: 2,
}

// flight is one queued frame.
type flight struct {
	from, to string
	data     []byte
}

// harnessWorker is one worker process on the harness: its session, its
// ticker and the engine of its held lease.
type harnessWorker struct {
	addr     string
	s        *session
	next     time.Time // its next tick
	period   time.Duration
	killed   bool
	left     bool
	records  int       // Records frames it sent
	mutedTil time.Time // its sends are dropped before this

	// The engine: the held lease's batches and how many it handed over.
	// running is false once finished is handed over.
	running bool
	frames  [][]byte
	shipped int
}

// leaseNet is one harness run.
type leaseNet struct {
	t     testing.TB
	seed  int64
	rng   *rand.Rand
	sched leaseSchedule
	plan  *plan
	cfg   Config

	now     time.Time
	start   time.Time
	coord   *coordinator
	col     *telemetry.Collector
	next    time.Time // the coordinator's next tick
	period  time.Duration
	workers []*harnessWorker
	queue   []flight
	fresh   []int // indices OnRecord saw, in order
	over    bool  // the coordinator drained the run

	kills, goodbyes, late int  // still to come
	muted                 int  // frames the mutes dropped
	trips                 int  // mutes that started
	jointExpiries         int  // coordinator ticks that expired two leases or more
	degraded              bool // the coordinator was degraded at some point
	steps                 int
	trace                 [sha256.Size]byte
	log                   []string // the trace's last lines, for failures
}

// leaseFixture is a suite's reference result and a fitted plan that every
// run of a test shares.
type leaseFixture struct {
	suite Suite
	want  []byte
	plan  *plan
	cfg   Config
}

func newLeaseFixture(t testing.TB, suite Suite) *leaseFixture {
	t.Helper()
	suite = suite.withDefaults()
	cfg := Config{Workers: 1, Cache: NewStrategyCache()}.withDefaults()
	p := newPlan(suite)
	if err := p.fit(cfg); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), suite, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return &leaseFixture{suite: suite, want: want, plan: p, cfg: cfg}
}

var (
	testLeaseFixtureOnce sync.Once
	testLeaseFixture     *leaseFixture
)

// sharedLeaseFixture is testSuite's fixture, built once per test binary.
func sharedLeaseFixture(t testing.TB) *leaseFixture {
	testLeaseFixtureOnce.Do(func() { testLeaseFixture = newLeaseFixture(t, testSuite()) })
	return testLeaseFixture
}

// newLeaseNet starts a coordinator for the fixture's suite on the
// schedule drawn from seed.
func newLeaseNet(t testing.TB, fx *leaseFixture, seed int64, sched leaseSchedule) *leaseNet {
	t.Helper()
	n := &leaseNet{
		t: t, seed: seed, rng: rand.New(rand.NewSource(seed)), sched: sched,
		plan: fx.plan, cfg: fx.cfg,
		now:   time.Unix(1_000_000, 0),
		col:   telemetry.New(),
		kills: sched.kills, goodbyes: sched.goodbyes, late: sched.late,
	}
	n.start = n.now
	c, err := newCoordinator(fx.suite, CoordinatorConfig{
		LeaseScenarios: sched.leaseSize,
		Heartbeat:      harnessHeartbeat,
		Completed:      sched.completed,
		Telemetry:      n.col,
		OnRecord:       func(rec RunRecord) error { n.fresh = append(n.fresh, rec.Index); return nil },
	}, n.now)
	if err != nil {
		t.Fatal(err)
	}
	n.coord = c
	n.period = n.skewed(harnessHeartbeat)
	n.next = n.now.Add(n.period)
	if sched.joinAfter == 0 {
		for range sched.workers {
			n.join()
		}
	}
	return n
}

// skewed is d stretched by up to ±10 %, drawn from the seed.
func (n *leaseNet) skewed(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (0.9 + 0.2*n.rng.Float64()))
}

// record adds one line to the trace.
func (n *leaseNet) record(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	n.trace = sha256.Sum256(append(n.trace[:], line...))
	n.log = append(n.log, line)
	if len(n.log) > 40 {
		n.log = n.log[1:]
	}
}

// fatalf fails the test with the seed, the step and every machine's state.
func (n *leaseNet) fatalf(format string, args ...any) {
	n.t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "\n  coordinator: folded %d of %d, leases %d, queue %v, %d in flight",
		n.coord.fold.next, n.coord.total, len(n.coord.leases), n.coord.queue, len(n.queue))
	for _, w := range n.workers {
		fmt.Fprintf(&b, "\n  %s: phase %d, err %v, lease %+v, shipped %d/%d, killed %v, left %v",
			w.addr, w.s.phase, w.s.err, w.s.lease, w.shipped, len(w.frames), w.killed, w.left)
	}
	fmt.Fprintf(&b, "\n  last steps:\n    %s", strings.Join(n.log, "\n    "))
	n.t.Fatalf("seed %d, step %d: %s%s", n.seed, n.steps, fmt.Sprintf(format, args...), b.String())
}

// join starts a worker process with a fresh address.
func (n *leaseNet) join() {
	w := &harnessWorker{addr: fmt.Sprintf("w%d", len(n.workers)), period: n.skewed(harnessHeartbeat / ticksPerBeat)}
	w.next = n.now.Add(w.period)
	w.s = newSession(coordAddr, nil, n.now)
	n.workers = append(n.workers, w)
	n.record("join %s", w.addr)
	n.settle(w)
}

// settle queues what w's session sent and starts the engine of a lease it
// was just granted, as the shell does after every event.
func (n *leaseNet) settle(w *harnessWorker) {
	for _, data := range w.s.takeSends() {
		if kind, _, _ := proto.Decode(data); kind == proto.KindRecords {
			w.records++
			if n.sched.mute > 0 && w.records == n.index(w)+1 {
				w.mutedTil = n.now.Add(n.sched.mute)
				n.trips++
			}
		}
		if n.now.Before(w.mutedTil) {
			n.muted++
			n.record("muted %s %q", w.addr, data)
			continue
		}
		n.send(w.addr, coordAddr, data)
	}
	if w.s.phase == phaseRun && !w.running {
		n.execute(w)
	}
}

// index is w's position in join order.
func (n *leaseNet) index(w *harnessWorker) int { return slices.Index(n.workers, w) }

// execute runs w's new lease through plan.execute and cuts its records
// into Records frames of the schedule's batch size.
func (n *leaseNet) execute(w *harnessWorker) {
	lease := w.s.lease
	w.running, w.frames, w.shipped = true, nil, 0
	var frame []byte
	batched := 0
	flush := func() {
		if batched > 0 {
			w.frames = append(w.frames, append(frame, recordsFrameTail...))
			frame, batched = nil, 0
		}
	}
	err := n.plan.execute(context.Background(), rangeInts(lease.Start, lease.End), n.cfg, func(rec *RunRecord, _ bool) error {
		if batched == 0 {
			frame = appendRecordsFrameHead(nil, lease.ID, len(w.frames))
		} else {
			frame = append(frame, ',')
		}
		var err error
		frame, err = appendRecordJSON(frame, *rec)
		batched++
		if batched == n.sched.batch {
			flush()
		}
		return err
	})
	if err != nil {
		n.fatalf("lease %+v: %v", lease, err)
	}
	flush()
}

// settleCoordinator queues what the coordinator sent, and drains the run
// once, as the shell does when the last record lands.
func (n *leaseNet) settleCoordinator() {
	if n.coord.done() && !n.over {
		n.over = true
		n.coord.drain()
	}
	for _, o := range n.coord.takeSends() {
		if kind, _, _ := proto.Decode(o.data); kind == proto.KindLease && len(n.sched.bogus) > 0 {
			for _, l := range n.sched.bogus {
				n.send(coordAddr, o.to, encode(proto.KindLease, l))
			}
			n.sched.bogus = nil
		}
		n.send(coordAddr, o.to, o.data)
	}
}

func (n *leaseNet) send(from, to string, data []byte) {
	n.record("send %s>%s %s", from, to, data)
	n.queue = append(n.queue, flight{from: from, to: to, data: data})
}

// worker is the live process at addr, or nil.
func (n *leaseNet) worker(addr string) *harnessWorker {
	for _, w := range n.workers {
		if w.addr == addr && !w.killed && !w.left {
			return w
		}
	}
	return nil
}

// live reports whether w's process still runs a session.
func (w *harnessWorker) live() bool { return !w.killed && !w.left && w.s.phase != phaseOver }

// midLease reports whether w holds a lease it has shipped part of.
func (w *harnessWorker) midLease() bool {
	return w.live() && w.running && w.shipped > 0 && w.shipped < len(w.frames)
}

// finished reports whether the run is over: every scenario folded, every
// late joiner joined, and every worker drained, departed or killed.
func (n *leaseNet) finished() bool {
	if !n.coord.done() || n.late > 0 {
		return false
	}
	for _, w := range n.workers {
		if w.live() {
			return false
		}
	}
	return true
}

// run steps the schedule until it finishes and checks its outcome.
func (n *leaseNet) run() {
	n.t.Helper()
	n.settleCoordinator()
	for !n.finished() {
		if n.steps++; n.steps > leaseStepBudget {
			n.fatalf("no end after %d steps", leaseStepBudget)
		}
		n.step()
	}
	for _, w := range n.workers {
		if !w.killed && !w.left && w.s.err != nil && w.s.err != ErrDrained {
			n.fatalf("worker %s failed: %v", w.addr, w.s.err)
		}
	}
}

// step makes one seeded choice.
func (n *leaseNet) step() {
	if n.sched.joinAfter > 0 && len(n.workers) == 0 && n.now.Sub(n.start) >= n.sched.joinAfter {
		for range n.sched.workers {
			n.join()
		}
	}
	var engines []*harnessWorker
	for _, w := range n.workers {
		if w.live() && w.running && w.s.phase == phaseRun {
			engines = append(engines, w)
		}
	}
	if n.faults() {
		return
	}
	switch r := n.rng.Intn(4 + 2*len(engines)); {
	case r < 4 && len(n.queue) > 0 && r > 0:
		n.deliver()
	case r < 4:
		n.advance()
	default:
		n.engine(engines[(r-4)/2])
	}
}

// faults kills, departs and joins workers as the schedule asks, and
// reports whether it did.
func (n *leaseNet) faults() bool {
	mid := slices.DeleteFunc(slices.Clone(n.workers), func(w *harnessWorker) bool { return !w.midLease() })
	others := func(w *harnessWorker) bool {
		for _, o := range n.workers {
			if o != w && o.live() {
				return true
			}
		}
		return false
	}
	switch {
	case n.sched.killTogether && n.kills > 0 && len(mid) >= n.kills:
		for _, w := range mid[:n.kills] {
			w.killed = true
			n.record("kill %s", w.addr)
		}
		for ; n.kills > 0; n.kills-- {
			n.join()
		}
	case !n.sched.killTogether && n.kills > 0 && len(mid) > 0 && n.rng.Float64() < 0.3:
		w := mid[n.rng.Intn(len(mid))]
		w.killed = true
		n.kills--
		n.record("kill %s", w.addr)
		n.join()
	case n.goodbyes > 0 && len(mid) > 0 && n.rng.Float64() < 0.3:
		w := mid[n.rng.Intn(len(mid))]
		if !others(w) {
			return false
		}
		w.s.leave()
		n.record("leave %s", w.addr)
		n.settle(w)
		w.left = true
		n.goodbyes--
	case n.late > 0 && n.coord.tm.granted.Total() > 0 && n.rng.Float64() < 0.2:
		n.late--
		n.join()
	default:
		return false
	}
	return true
}

// deliver takes one frame off the queue — usually the oldest — and hands
// it to its receiver, unless the network drops it; it may also stay
// queued to arrive again.
func (n *leaseNet) deliver() {
	i := 0
	if n.rng.Float64() < n.sched.reorder {
		i = n.rng.Intn(len(n.queue))
	}
	f := n.queue[i]
	if n.rng.Float64() < n.sched.dup {
		n.record("dup %s>%s", f.from, f.to)
		n.queue = append(n.queue, f)
	}
	n.queue = slices.Delete(n.queue, i, i+1)
	if n.rng.Float64() < n.sched.loss {
		n.record("drop %s>%s", f.from, f.to)
		return
	}
	n.record("deliver %s>%s", f.from, f.to)
	if f.to == coordAddr {
		if err := n.coord.receive(f.from, f.data, n.now); err != nil {
			n.fatalf("coordinator: %v", err)
		}
		n.settleCoordinator()
		return
	}
	if w := n.worker(f.to); w != nil {
		w.s.receive(f.data, n.now)
		n.settle(w)
	}
}

// advance moves the clock on by up to a quarter heartbeat and ticks every
// machine whose ticker fired, in a seeded order.
func (n *leaseNet) advance() {
	n.now = n.now.Add(time.Duration(1 + n.rng.Int63n(int64(harnessHeartbeat/ticksPerBeat))))
	n.record("clock %s", n.now.Sub(n.start))
	var due []func()
	if !n.now.Before(n.next) {
		due = append(due, func() {
			n.record("tick coord")
			expired := n.coord.tm.expired.Total()
			n.coord.tick(n.now)
			if n.coord.tm.expired.Total() >= expired+2 {
				n.jointExpiries++
			}
			n.degraded = n.degraded || n.coord.degraded
			n.settleCoordinator()
		})
		for !n.now.Before(n.next) {
			n.next = n.next.Add(n.period)
		}
	}
	for _, w := range n.workers {
		if w.live() && !n.now.Before(w.next) {
			due = append(due, func() {
				n.record("tick %s", w.addr)
				w.s.tick(n.now)
				n.settle(w)
			})
			for !n.now.Before(w.next) {
				w.next = w.next.Add(w.period)
			}
		}
	}
	n.rng.Shuffle(len(due), func(i, j int) { due[i], due[j] = due[j], due[i] })
	for _, tick := range due {
		tick()
	}
}

// engine hands w's session the next batch of its lease, or the lease's end
// once every batch is acked.
func (n *leaseNet) engine(w *harnessWorker) {
	if w.shipped < len(w.frames) {
		n.record("batch %s %d", w.addr, w.shipped)
		w.s.batch(w.shipped, w.frames[w.shipped], n.now)
		w.shipped++
	} else {
		n.record("finished %s", w.addr)
		w.running = false
		w.s.finished(n.now)
	}
	n.settle(w)
}

// check fails the run unless its Result is the single-process run's, byte
// for byte, and OnRecord saw every index without a record yet, once and
// in order.
func (n *leaseNet) check(want []byte) {
	n.t.Helper()
	got, err := json.Marshal(n.coord.fold.result())
	if err != nil {
		n.t.Fatal(err)
	}
	if string(got) != string(want) {
		n.fatalf("result differs from the single-process run:\n%s\n%s", got, want)
	}
	var missing []int
	for i := range n.coord.total {
		if _, ok := n.sched.completed.get(i); !ok {
			missing = append(missing, i)
		}
	}
	if !slices.Equal(n.fresh, missing) {
		n.fatalf("OnRecord saw %v, want %v", n.fresh, missing)
	}
}

// eachLeaseSeed runs body on seeds 1..leaseSeeds, one parallel subtest
// per seed; a race build runs a quarter of them, since one schedule runs
// on one goroutine and gives the detector nothing to find.
func eachLeaseSeed(t *testing.T, body func(t *testing.T, seed int64)) {
	n := int64(leaseSeeds)
	if raceEnabled {
		n /= 4
	}
	for seed := int64(1); seed <= n; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			body(t, seed)
		})
	}
}

// runLeaseSchedule runs seed's schedule twice, checks the first run's
// outcome and requires the second to replay its trace, and returns the
// first.
func runLeaseSchedule(t *testing.T, fx *leaseFixture, seed int64, sched leaseSchedule) *leaseNet {
	t.Helper()
	n := newLeaseNet(t, fx, seed, sched)
	n.run()
	n.check(fx.want)
	again := newLeaseNet(t, fx, seed, sched)
	again.run()
	if again.trace != n.trace {
		t.Fatalf("seed %d: a replay took another schedule (%d and %d steps)", seed, n.steps, again.steps)
	}
	return n
}
