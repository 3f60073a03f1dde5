package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints as its last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// failedShare is the issue's failed_share: passes, or in solve-cold solves,
// that returned an error or failed the output check, over those attempted.
// It travels as the result line's failed and attempted, not as a metric,
// because a metric of the contract may never read 0.
func (r *report) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// set stores a metric under the unit its definition declares.
func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: " + name + " is not a declared metric")
}

// metricDef names a metric; the lists below are the benchmark's contract and
// BENCHMARK.json repeats them (bench_test.go keeps the two equal).
type metricDef struct {
	name, unit string
	better     string  // "lower" | "higher"
	bound      float64 // end-to-end only: share of the median it may worsen by
}

// The bounds are about three times the widest run-to-run spread measured on
// the host this was built on (README.md, REPEATABILITY), as the benchmark's
// contract asks, and no more than the 25 % it allows: a bound inside the
// spread would reject this benchmark, and later changes, at random.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_work", "ms", "lower", 0.25},
	{"allocs_per_work", "count", "lower", 0.07},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// coldHeap puts the process where a fresh CLI invocation would start a pass:
// garbage collected, free heap pages back with the OS, and the kernel's
// resident-set high-water mark reset to the current resident set, so that
// peakRSSMB afterwards is the coming pass's own peak. (Where the reset is
// not permitted the mark stays the process's peak so far, which still is a
// peak and still repeats.)
func coldHeap() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is VmHWM, the resident-set high-water mark since the last
// coldHeap. It is read from /proc because getrusage's ru_maxrss also covers
// the process that exec'd this one, which under `go run` is the go command.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb) // "   12345 kB"
			return kb / 1024
		}
	}
	return 0
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// printHost records where and from what the numbers came. `go run` stamps no
// VCS revision into the binary, so the commit falls back on the work tree's
// .git; a checkout that is not a repository reports "unknown".
func printHost(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if head, err := os.ReadFile(".git/HEAD"); err == nil && commit == "unknown" {
		commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			commit = "unknown"
			if sha, err := os.ReadFile(".git/" + ref); err == nil {
				commit = strings.TrimSpace(string(sha))
			}
		}
	}
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// sample is the cost of one pass, read when the pass returned and before its
// after step ran.
type sample struct {
	wall, cpu time.Duration
	allocs    uint64
	peakRSSMB float64
}

// passChecker runs passes and folds their outcomes into the report: a pass
// fails when it returns an error, when its outputs differ from the first
// pass's, or when its after step finds them wrong.
type passChecker struct {
	w     *workload
	first string
	rep   *report
	log   io.Writer
}

func (c *passChecker) run(tr *tracer) (outcome, sample, bool) {
	m0, c0, t0 := mallocs(), cpuTime(), time.Now()
	out, err := c.w.pass(tr)
	s := sample{wall: time.Since(t0), cpu: cpuTime() - c0}
	s.allocs, s.peakRSSMB = mallocs()-m0, peakRSSMB()
	c.rep.Attempted += max(out.attempted, 1)
	c.rep.Failed += out.failed
	if err != nil {
		fmt.Fprintf(c.log, "%s: pass failed: %v\n", c.w.name, err)
		c.rep.Failed++
		return out, s, false
	}
	ok := out.failed == 0
	if err := c.w.after(); err != nil {
		fmt.Fprintf(c.log, "%s: output check failed: %v\n", c.w.name, err)
		c.rep.Failed++
		ok = false
	}
	if c.first == "" {
		c.first = out.digest
	} else if out.digest != c.first {
		fmt.Fprintf(c.log, "%s: outputs differ from the first pass's (digest %.12s, want %.12s)\n",
			c.w.name, out.digest, c.first)
		c.rep.Failed++
		ok = false
	}
	return out, s, ok
}

// minTimedPasses is the floor below which -seconds cannot cut a run.
const minTimedPasses = 5

// runEndToEnd measures one workload untraced: one discarded warm-up pass,
// then the workload's frozen number of times a cold set-up and a timed pass
// in turn, each from a cold heap (coldHeap runs between them, outside the
// timers). The set-ups are spread over the run rather than bunched at its
// start, so that a disturbance of a second or two cannot sit on all of them.
// -seconds only caps the run: once it has passed, and minTimedPasses are in,
// the remaining passes are dropped and the output says so.
func runEndToEnd(e *env, w *workload, seconds int, log io.Writer) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	check := passChecker{w: w, rep: &rep, log: log}
	check.run(nil) // warm-up: checked, not timed

	// Every cost is reported as the median over the run's set-ups or timed
	// passes, so one disturbed pass moves none of them.
	var setups, walls, cpus, allocs, peaks []float64
	passes := e.sc.passes[w.name]
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for n := 0; n < passes; n++ {
		if err := e.ctx.Err(); err != nil {
			return rep, err // interrupted
		}
		if n >= minTimedPasses && time.Now().After(deadline) {
			fmt.Fprintf(log, "%s: -seconds %d ran out after %d of %d timed passes\n", w.name, seconds, n, passes)
			break
		}
		coldHeap()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return rep, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())

		coldHeap()
		_, s, ok := check.run(nil)
		if !ok {
			continue
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.allocs))
		peaks = append(peaks, s.peakRSSMB)
	}
	rep.Correct = rep.Failed == 0 && len(walls) > 0
	if len(walls) == 0 {
		return rep, nil
	}

	units := float64(w.units)
	rep.set(endToEndMetrics, "setup_s", median(setups))
	rep.set(endToEndMetrics, "work_per_s", units/median(walls))
	rep.set(endToEndMetrics, "cpu_ms_per_work", 1e3*median(cpus)/units)
	rep.set(endToEndMetrics, "allocs_per_work", median(allocs)/units)
	rep.set(endToEndMetrics, "peak_rss_mb", median(peaks))

	fmt.Fprintf(log, "%s: %d %s per pass; %d timed passes and %d cold set-ups, medians reported (too few samples for a higher percentile)\n",
		w.name, w.units, w.unit, len(walls), len(setups))
	fmt.Fprintf(log, "%s: pass walls (s): %.3f\n", w.name, walls)
	return rep, nil
}
