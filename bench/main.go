// Command bench is the repository's benchmark: five batch workloads measured
// end to end, and a traced run that attributes their time to the layers.
// README.md has the metric and workload tables; BENCHMARK.json the contract.
//
//	go run ./bench --workload grid-deep --seed 1 --seconds 20 --trace 0
//	go run ./bench --workload grid-deep --seed 1 --seconds 20 --trace 1
//	go run ./bench            # every workload, one child process each
//	go run ./bench -trace 1   # one traced process, overhead measured on all five
//	go run ./bench -aa        # the end-to-end set twice; fails on a gap over a bound
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	workloadFlag := flag.String("workload", "all", "workload to run in this process, or \"all\": end to end each in a child process, traced all in this one")
	seed := flag.Int64("seed", 1, "seed of every generated input: suite master seed and solver seeds")
	seconds := flag.Int("seconds", 20, "cap on the timed passes of a run: once it has passed, passes beyond the fifth are dropped")
	trace := flag.Int("trace", 0, "0: untraced end-to-end run; 1: traced run that prints the per-layer metrics")
	scaleName := flag.String("scale", "full", "full | tiny (tiny is the smoke bench_test.go runs)")
	aa := flag.Bool("aa", false, "run the end-to-end set twice, alternating workload order, and compare the two")
	spans := flag.String("spans", "", "traced run: also write every span to this file as JSON")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if flag.NArg() > 0 {
		return fail(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds < 1 {
		return fail(fmt.Errorf("-seconds %d: want at least 1", *seconds))
	}
	sc, err := scaleByName(*scaleName)
	if err != nil {
		return fail(err)
	}

	child := childArgs{seed: *seed, seconds: *seconds, trace: *trace, scale: sc.name}
	if *aa {
		return runAA(child)
	}
	if *spans != "" && *trace != 1 {
		return fail(fmt.Errorf("-spans needs -trace 1"))
	}
	// End to end, every workload gets a process of its own. A traced run
	// passes through all five workloads in any case, so "all" is one process
	// that measures the tracing overhead on each of them.
	targets := []string{*workloadFlag}
	if *workloadFlag == "all" {
		if *trace == 0 {
			return runAll(child)
		}
		targets = workloadNames
	} else if !slices.Contains(workloadNames, *workloadFlag) {
		return fail(fmt.Errorf("unknown workload %q (known: %v)", *workloadFlag, workloadNames))
	}

	runtime.GOMAXPROCS(engineWorkers)
	// An interrupt cancels the pass under way, so the run still returns
	// through the deferred removal of its scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Scratch lives under the directory the run was started from, the
	// checkout, and not under os.TempDir: the benchmark's contract is to read
	// and write nowhere outside its checkout. That rules out a tmpfs, so the
	// checkpoint fsyncs of grid-durable wait for the checkout's disk;
	// io.sync_wait_share says how long. The root .gitignore names the
	// directory.
	scratch, err := os.MkdirTemp(".", ".bench-scratch-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(scratch)
	e := &env{ctx: ctx, sc: sc, seed: *seed, scratch: scratch}

	fmt.Printf("bench: workload=%s seed=%d seconds=%d trace=%d scale=%s\n",
		*workloadFlag, *seed, *seconds, *trace, sc.name)
	printHost(os.Stdout)
	var rep report
	if *trace == 1 {
		rep, err = runTraced(e, targets, *spans, os.Stdout)
	} else {
		var w *workload
		if w, err = e.workload(*workloadFlag); err == nil {
			rep, err = runEndToEnd(e, w, *seconds, os.Stdout)
		}
	}
	if err != nil {
		return fail(err)
	}
	printMetrics(os.Stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}
