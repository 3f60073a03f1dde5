package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// childArgs are the flags a driver run hands to each workload's process.
type childArgs struct {
	seed    int64
	seconds int
	trace   int
	scale   string
}

// runChild measures one workload in a process of its own, so peak memory,
// CPU time and allocation counts are the workload's alone. Children run
// strictly one after another.
func runChild(workload string, a childArgs) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(a.seed, 10),
		"-seconds", strconv.Itoa(a.seconds),
		"-trace", strconv.Itoa(a.trace),
		"-scale", a.scale)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return report{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return report{}, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return rep, nil
}

// runAll runs every workload once and exits non-zero if any output was wrong.
func runAll(a childArgs) int {
	code := 0
	for _, name := range workloadNames {
		rep, err := runChild(name, a)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !rep.Correct {
			code = 1
		}
		fmt.Println()
	}
	return code
}

// runAA is the noise test: the whole end-to-end set twice from the same
// build, the second time in reverse workload order, then every (workload,
// metric) pair's two values side by side with their relative gap and the
// metric's bound, failed_share (bound 0) among them. Any gap over its bound means the benchmark cannot tell a
// regression of that size from noise on this host, and the exit is non-zero.
func runAA(a childArgs) int {
	a.trace = 0
	sets := [2]map[string]report{{}, {}}
	for i := range sets {
		order := slices.Clone(workloadNames)
		if i == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			rep, err := runChild(name, a)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			sets[i][name] = rep
			fmt.Println()
		}
	}
	code := 0
	fmt.Printf("%-13s %-16s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, name := range workloadNames {
		first, second := sets[0][name], sets[1][name]
		for _, d := range endToEndMetrics {
			x, y := first.Metrics[d.name].Value, second.Metrics[d.name].Value
			gap := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if !(gap <= d.bound) {
				verdict = "  OVER"
				code = 1
			}
			fmt.Printf("%-13s %-16s %14.6g %14.6g %7.2f%% %7.2f%%%s\n",
				name, d.name, x, y, 100*gap, 100*d.bound, verdict)
		}
		// The issue's sixth metric; its bound is 0, absolute.
		verdict := ""
		if !first.Correct || !second.Correct {
			verdict = "  OVER"
			code = 1
		}
		fmt.Printf("%-13s %-16s %14.6g %14.6g %8s %7.2f%%%s\n",
			name, "failed_share", first.failedShare(), second.failedShare(), "", 0.0, verdict)
	}
	return code
}

// printMetrics lists a run's metrics for people; machines read the JSON line
// that follows.
func printMetrics(w io.Writer, rep report) {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if m, ok := rep.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  %-30s %14.6g ratio (%d failed of %d attempted)\n", "failed_share", rep.failedShare(), rep.Failed, rep.Attempted)
}
