package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAddsAndReregisters(t *testing.T) {
	c := New()
	ctr := c.Counter("test.count")
	for n := int64(0); n < 64; n++ {
		ctr.Add(n)
	}
	ctr.Inc()
	if got, want := ctr.Total(), int64(64*63/2+1); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if c.Counter("test.count") != ctr {
		t.Error("re-registering a counter name must return the same counter")
	}
}

func TestGaugeMin(t *testing.T) {
	c := New()
	g := c.Gauge("test.best")
	g.Min(3.5)
	g.Min(7.0) // larger: ignored
	if got := g.Value(); got != 3.5 {
		t.Errorf("Value = %v, want 3.5", got)
	}
	g.Min(-2.25)
	if got := g.Value(); got != -2.25 {
		t.Errorf("Value = %v, want -2.25", got)
	}

	// Zero is a valid minimum even though zero bits encode "unset".
	z := c.Gauge("test.zero")
	z.Min(0)
	z.Min(5)
	if got := z.Value(); got != 0 {
		t.Errorf("after Min(0), Min(5): Value = %v, want 0", got)
	}
}

// TestGaugeMax is Min's mirror: the first fold claims an unset gauge
// whatever its sign, zero is a valid maximum, and a snapshot reports a
// folded zero as 0.
func TestGaugeMax(t *testing.T) {
	c := New()
	g := c.Gauge("test.max")
	g.Max(-3.5)
	g.Max(-7.0) // smaller: ignored
	if got := g.Value(); got != -3.5 {
		t.Errorf("Value = %v, want -3.5", got)
	}
	g.Max(2.25)
	if got := g.Value(); got != 2.25 {
		t.Errorf("Value = %v, want 2.25", got)
	}
	z := c.Gauge("test.zero")
	z.Max(0)
	z.Max(-5)
	if got := z.Value(); got != 0 {
		t.Errorf("after Max(0), Max(-5): Value = %v, want 0", got)
	}
	if got := c.Snapshot().Gauges["test.zero"]; got != 0 || math.Signbit(got) {
		t.Errorf("snapshot of a folded zero = %v, want +0", got)
	}
}

// TestGaugeMaxConcurrent releases goroutines at once on a fresh gauge,
// round after round, each folding interleaved ascending values (run it
// under -race): every round must end at the exact maximum. A
// load-compare-store fold loses it whenever a smaller value's store lands
// after the larger one's, which these rounds provoke within a second.
func TestGaugeMaxConcurrent(t *testing.T) {
	const rounds, workers, perWorker = 1000, 8, 100
	for round := 0; round < rounds; round++ {
		g := New().Gauge("test.max")
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < perWorker; i++ {
					g.Max(float64(i*workers + w))
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if got, want := g.Value(), float64(workers*perWorker-1); got != want {
			t.Fatalf("round %d: Value = %v after concurrent folds, want the maximum %v", round, got, want)
		}
	}
}

func TestGaugeUnsetOmittedFromSnapshot(t *testing.T) {
	c := New()
	c.Gauge("test.unset")
	c.Gauge("test.set").Set(1.5)
	c.Gauge("test.inf").Set(math.Inf(1))
	s := c.Snapshot()
	if _, ok := s.Gauges["test.set"]; !ok {
		t.Error("set gauge missing from snapshot")
	}
	if _, ok := s.Gauges["test.inf"]; ok {
		t.Error("non-finite gauge must be dropped (JSON cannot encode it)")
	}
	// The unset gauge reads +0.0 which is finite, so it appears as 0 — that
	// is fine for JSON; only non-finite values are dropped.
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must marshal: %v", err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := New()
	h := c.Histogram("test.hist", []int64{10, 100, 1000})
	h.Observe(5)    // bucket le=10
	h.Observe(10)   // bucket le=10 (inclusive)
	h.Observe(500)  // bucket le=1000
	h.Observe(5000) // overflow
	s := c.Snapshot().Histograms["test.hist"]
	if s.Count != 4 || s.Sum != 5515 {
		t.Errorf("Count/Sum = %d/%d, want 4/5515", s.Count, s.Sum)
	}
	wantBuckets := []int64{2, 0, 1}
	for i, want := range wantBuckets {
		if s.Buckets[i].Count != want {
			t.Errorf("bucket %d count = %d, want %d", i, s.Buckets[i].Count, want)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("Overflow = %d, want 1", s.Overflow)
	}
}

func TestCounterFuncAndReplace(t *testing.T) {
	c := New()
	c.CounterFunc("ext.count", func() int64 { return 7 })
	if got := c.Snapshot().Counter("ext.count"); got != 7 {
		t.Errorf("counter func = %d, want 7", got)
	}
	// Re-registering replaces the source (a fresh cache superseding the old).
	c.CounterFunc("ext.count", func() int64 { return 11 })
	if got := c.Snapshot().Counter("ext.count"); got != 11 {
		t.Errorf("replaced counter func = %d, want 11", got)
	}
}

func TestPhases(t *testing.T) {
	c := New()
	end := c.Phase("test.phase")
	time.Sleep(time.Millisecond)
	end()
	s := c.Snapshot()
	if len(s.Phases) != 1 || s.Phases[0].Name != "test.phase" {
		t.Fatalf("Phases = %+v, want one test.phase entry", s.Phases)
	}
	if s.Phases[0].Seconds <= 0 {
		t.Errorf("phase duration = %v, want > 0", s.Phases[0].Seconds)
	}
}

// TestSnapshotStableJSON: two snapshots of identical state must serialize
// identically (map keys sort), because the CI diff and the manifest
// reconciliation depend on stable output.
func TestSnapshotStableJSON(t *testing.T) {
	c := New()
	c.Counter("b.two").Add(2)
	c.Counter("a.one").Add(1)
	c.Gauge("g.one").Set(1)
	c.Histogram("h.one", []int64{10}).Observe(3)
	s := c.Snapshot()
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("snapshot JSON unstable:\n%s\n%s", b1, b2)
	}
}

// TestConcurrentRecordingAndSnapshot is the race-detector hammer: 32
// goroutines add to one counter and observe into one histogram at once
// while another goroutine snapshots continuously. Run with -race (CI does).
// Halfway, every recorder waits until a snapshot has been taken, which
// must hold exactly the first halves; the final totals must be exact too,
// which a load-then-store add misses as soon as two recorders overlap.
func TestConcurrentRecordingAndSnapshot(t *testing.T) {
	// Worker w adds w+1 and observes 0, 1, … per round, so each half of
	// its rounds puts perHalf observations in each bucket.
	const workers, perHalf = 32, 5000
	c := New()
	ctr := c.Counter("race.count")
	g := c.Gauge("race.best")
	h := c.Histogram("race.hist", []int64{perHalf - 1})
	tr := NewTraining(c)

	want := func(rounds int64) (count, sum int64) {
		return rounds * workers * (workers + 1) / 2, workers * rounds * (rounds - 1) / 2
	}
	check := func(when string, s Snapshot, rounds int64) {
		t.Helper()
		count, sum := want(rounds)
		if got := s.Counter("race.count"); got != count {
			t.Errorf("%s: counter total = %d, want %d", when, got, count)
		}
		hs := s.Histograms["race.hist"]
		if hs.Count != workers*rounds || hs.Sum != sum {
			t.Errorf("%s: histogram count/sum = %d/%d, want %d/%d", when, hs.Count, hs.Sum, workers*rounds, sum)
		}
		if hs.Buckets[0].Count+hs.Overflow != hs.Count || hs.Buckets[0].Count != workers*perHalf {
			t.Errorf("%s: buckets %d + overflow %d, want %d in the bucket of %d", when,
				hs.Buckets[0].Count, hs.Overflow, workers*perHalf, hs.Count)
		}
		if got := s.Counter("training.evals"); got != workers*rounds {
			t.Errorf("%s: training evals = %d, want %d", when, got, workers*rounds)
		}
	}

	stop := make(chan struct{})
	snapped := make(chan struct{})
	var snapper, half, recorders sync.WaitGroup
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A count only grows, so no snapshot reads less than the one
			// before it.
			n := c.Snapshot().Counter("race.count")
			if n < last {
				t.Errorf("counter snapshot went from %d back to %d", last, n)
				return
			}
			last = n
		}
	}()
	half.Add(workers)
	recorders.Add(workers)
	for w := range workers {
		go func() {
			defer recorders.Done()
			for i := range int64(2 * perHalf) {
				if i == perHalf {
					half.Done()
					<-snapped
				}
				ctr.Add(int64(w + 1))
				g.Min(float64(w + 1))
				h.Observe(i)
				tr.ObserveEval(float64(i + 1))
			}
		}()
	}
	half.Wait()
	check("halfway", c.Snapshot(), perHalf)
	close(snapped)
	recorders.Wait()
	close(stop)
	snapper.Wait()

	check("at the end", c.Snapshot(), 2*perHalf)
	if got := g.Value(); got != 1 {
		t.Errorf("min gauge = %v, want 1", got)
	}
}

// TestRecordingZeroAllocs pins the allocation-free recording contract for
// every hot-path operation.
func TestRecordingZeroAllocs(t *testing.T) {
	c := New()
	ctr := c.Counter("alloc.count")
	g := c.Gauge("alloc.gauge")
	h := c.Histogram("alloc.hist", DurationBuckets())
	tr := NewTraining(c)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { ctr.Inc() }},
		{"Counter.Add", func() { ctr.Add(5) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Min", func() { g.Min(1.25) }},
		{"Gauge.Max", func() { g.Max(1.25) }},
		{"Histogram.Observe", func() { h.Observe(123456) }},
		{"Training.ObserveEval", func() { tr.ObserveEval(2.5) }},
		{"Training.ObserveIteration", func() { tr.ObserveIteration(2.5) }},
	}
	for _, check := range checks {
		if allocs := testing.AllocsPerRun(100, check.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", check.name, allocs)
		}
	}
}

func TestTrainingNilSafe(t *testing.T) {
	var tr *Training
	tr.ObserveEval(1)      // must not panic
	tr.ObserveIteration(1) // must not panic
}

// TestNilTelemetryIsNoop holds the package's nil contract: telemetry off is
// a nil *Collector, whose handles are nil, and every method of a nil
// Collector, Counter, Gauge, Histogram or Training does nothing without
// allocating.
func TestNilTelemetryIsNoop(t *testing.T) {
	var c *Collector
	ctr, g, h, tr := c.Counter("x"), c.Gauge("x"), c.Histogram("x", DurationBuckets()), NewTraining(c)
	if ctr != nil || g != nil || h != nil || tr != nil {
		t.Fatalf("a nil collector handed out %v, %v, %v, %v; want nil handles", ctr, g, h, tr)
	}
	obj := func(thetas [][]float64, out []float64) { copy(out, thetas[0]) }
	checks := []struct {
		name string
		fn   func()
	}{
		{"Collector.Counter", func() { c.Counter("x") }},
		{"Collector.Gauge", func() { c.Gauge("x") }},
		{"Collector.Histogram", func() { c.Histogram("x", nil) }},
		{"Collector.CounterFunc", func() { c.CounterFunc("x", nil) }},
		{"Collector.Phase", func() { c.Phase("x")() }},
		{"Collector.Snapshot", func() { c.Snapshot() }},
		{"NewTraining", func() { NewTraining(c) }},
		{"Counter.Inc", func() { ctr.Inc() }},
		{"Counter.Add", func() { ctr.Add(5) }},
		{"Counter.Total", func() { ctr.Total() }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Gauge.Min", func() { g.Min(1.25) }},
		{"Gauge.Max", func() { g.Max(1.25) }},
		{"Gauge.Value", func() { g.Value() }},
		{"Histogram.Observe", func() { h.Observe(123456) }},
		{"Training.ObserveEval", func() { tr.ObserveEval(2.5) }},
		{"Training.ObserveIteration", func() { tr.ObserveIteration(2.5) }},
		{"Training.Objective", func() { tr.Objective(obj) }},
	}
	for _, check := range checks {
		if allocs := testing.AllocsPerRun(100, check.fn); allocs != 0 {
			t.Errorf("nil %s allocates %.1f per op, want 0", check.name, allocs)
		}
	}
	if ctr.Total() != 0 || g.Value() != 0 {
		t.Error("a nil handle reports a value")
	}
	if s := c.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Errorf("nil collector snapshot = %+v, want the zero Snapshot", s)
	}
	if got := tr.Objective(obj); reflect.ValueOf(got).Pointer() != reflect.ValueOf(obj).Pointer() {
		t.Error("a nil Training wrapped the objective")
	}
}

// TestTrainingObjectiveObserves: the wrapped objective returns the inner
// values and records each candidate of each batch.
func TestTrainingObjectiveObserves(t *testing.T) {
	c := New()
	f := NewTraining(c).Objective(func(thetas [][]float64, out []float64) {
		for i, theta := range thetas {
			out[i] = theta[0]
		}
	})
	for _, batch := range [][]float64{{3}, {4, 1, 5}, {2}} {
		thetas := make([][]float64, len(batch))
		for i, v := range batch {
			thetas[i] = []float64{v}
		}
		out := make([]float64, len(batch))
		f(thetas, out)
		for i, v := range batch {
			if out[i] != v {
				t.Fatalf("objective returned %v, want %v", out[i], v)
			}
		}
	}
	s := c.Snapshot()
	if s.Counter("training.evals") != 5 || s.Gauges["training.best_objective"] != 1 {
		t.Errorf("evals %d, best %v; want 5 and 1", s.Counter("training.evals"), s.Gauges["training.best_objective"])
	}
}

func TestDurationBucketsAscending(t *testing.T) {
	b := DurationBuckets()
	if len(b) == 0 {
		t.Fatal("no duration buckets")
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
}

func TestMeterThrottlesAndFinishes(t *testing.T) {
	var buf bytes.Buffer
	m := NewMeter(&buf)
	// Rapid-fire updates within one interval: only the first (and the final
	// scenario) may draw.
	for i := 1; i <= 999; i++ {
		m.Progress(i, 1000)
	}
	early := strings.Count(buf.String(), "\r")
	if early > 2 {
		t.Errorf("meter drew %d times within one interval, want <= 2", early)
	}
	m.Progress(1000, 1000)
	if !strings.Contains(buf.String(), "1000/1000") {
		t.Errorf("final scenario must draw; output %q", buf.String())
	}
	m.Finish()
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Error("Finish must end the meter line")
	}
}

func TestFmtETA(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{30 * time.Second, "30s"},
		{90 * time.Second, "1m30s"},
		{3700 * time.Second, "1h01m"},
	}
	for _, tc := range cases {
		if got := fmtETA(tc.d); got != tc.want {
			t.Errorf("fmtETA(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// TestStartProfilesWritesBoth: the stop function leaves a CPU and a heap
// profile on disk, and an unwritable heap path is its error, not a silent
// loss.
func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v (size %v)", path, err, fi)
		}
	}
	stop, err = StartProfiles("", filepath.Join(dir, "missing", "mem.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("heap profile to a missing directory: stop returned nil")
	}
}
