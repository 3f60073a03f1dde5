package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tolerance"
	"tolerance/internal/emulation"
	"tolerance/internal/fleet"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// engineWorkers is the size of every pool the benchmark starts: the engine's
// scenario workers, the learned solvers' evaluation workers, and GOMAXPROCS.
// The benchmark is a closed loop with one client on a two-core host; a
// coordinator pass runs two remote workers of one thread each.
const engineWorkers = 2

// env is what one benchmark process shares between its workloads.
type env struct {
	ctx     context.Context
	sc      scale
	seed    int64
	scratch string // every file the benchmark writes lives under here

	// col, when set, is attached to the next pass's engine or coordinator.
	// Only the traced run sets it: end-to-end passes run without telemetry.
	col *telemetry.Collector
	// letWorkersDrain makes the next coordinator pass wait for its workers
	// to leave by themselves instead of cancelling them; lastDrain is how
	// long that took. Only the traced run asks for it.
	letWorkersDrain bool
	lastDrain       time.Duration

	wideOnce sync.Once
	wideIn   *wideInputs
	wideErr  error
}

// outcome is what one pass hands back to the harness.
type outcome struct {
	digest    string // hash of every output byte of the pass
	attempted int    // operations checked inside the pass
	failed    int    // ... that returned an error or a wrong output
	root      int32  // the pass's root span (traced passes)
}

// workload is one of the five benchmark workloads. A pass starts from the
// generated inputs and a fresh strategy cache and ends at the last output
// byte: fit, solve/train, run, fold, encode and fsync are all inside it.
type workload struct {
	name  string
	unit  string // what one work unit is
	units int    // work units per pass
	// setup is one cold set-up: everything that must happen before the
	// first unit of work can start. The harness times it.
	setup func() error
	// pass runs one whole pass, traced when tr is non-nil.
	pass func(tr *tracer) (outcome, error)
	// after runs outside the timer once a pass has returned: output checks
	// against the reference, and removal of the pass's scratch files.
	after func() error
}

var workloadNames = []string{"grid-deep", "grid-durable", "grid-replay", "grid-leased", "solve-cold"}

func (e *env) workload(name string) (*workload, error) {
	switch name {
	case "grid-deep":
		return e.gridDeep()
	case "grid-durable":
		return e.gridDurable()
	case "grid-replay":
		return e.gridReplay()
	case "grid-leased":
		return e.gridLeased()
	case "solve-cold":
		return e.solveCold(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// digestResult encodes a fleet result the way `tolerance-fleet -format json`
// prints it and hashes the bytes.
func digestResult(res *fleet.Result) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// coldSetup is the set-up of a grid run on a fresh strategy cache: parse the
// suite JSON, fit Ẑ offline, resolve every cell's policy (DP and LP solves,
// learned training), and create the checkpoint files the run will append to.
func (e *env) coldSetup(suiteJSON []byte, checkpoints []string) error {
	suite, err := fleet.ParseSuite(suiteJSON)
	if err != nil {
		return err
	}
	cache := fleet.NewStrategyCache()
	if _, err := cache.Fits(suite.FitSamples, emulation.FitStreamSeed(suite.Seed)); err != nil {
		return err
	}
	for _, cell := range suite.Cells() {
		if _, err := cache.PolicyFor(e.ctx, cell, suite); err != nil {
			return err
		}
	}
	for i, path := range checkpoints {
		w, err := fleet.CreateCheckpoint(path, suite, fleet.Shard{Index: i, Count: len(checkpoints)})
		if err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// plainRun is the single-process run every other execution path must match
// byte for byte: parse, run on a fresh cache, encode.
func (e *env) plainRun(tr *tracer, suiteJSON []byte, rootName string) (outcome, error) {
	root := tr.begin(rootName, -1)
	defer tr.end(root)
	s := tr.begin("suite.parse", root)
	suite, err := fleet.ParseSuite(suiteJSON)
	tr.end(s)
	if err != nil {
		return outcome{}, err
	}
	s = tr.begin("engine.run", root)
	res, err := fleet.Run(e.ctx, suite, fleet.Config{
		Workers: engineWorkers, Cache: fleet.NewStrategyCache(), Telemetry: e.col,
	})
	tr.end(s)
	if err != nil {
		return outcome{}, err
	}
	s = tr.begin("result.encode", root)
	digest, err := digestResult(res)
	tr.end(s)
	return outcome{digest: digest, attempted: 1, root: root}, err
}

func (e *env) gridDeep() (*workload, error) {
	suiteJSON, err := e.sc.deepSuiteJSON(e.seed)
	if err != nil {
		return nil, err
	}
	suite, err := fleet.ParseSuite(suiteJSON)
	if err != nil {
		return nil, err
	}
	return &workload{
		name:  "grid-deep",
		unit:  "scenarios",
		units: suite.NumScenarios(),
		setup: func() error { return e.coldSetup(suiteJSON, nil) },
		pass:  func(tr *tracer) (outcome, error) { return e.plainRun(tr, suiteJSON, "grid-deep") },
		after: func() error { return nil },
	}, nil
}

// wideInputs is the wide suite with the digest of its plain run, the
// reference the durable, replay and leased outputs are compared with. The
// reference comes from this build, never from pinned bytes: rng rebases are
// allowed across releases, disagreement between execution paths is not.
type wideInputs struct {
	suiteJSON []byte
	scenarios int
	reference string
}

func (e *env) wide() (*wideInputs, error) {
	e.wideOnce.Do(func() {
		suiteJSON, err := e.sc.wideSuiteJSON(e.seed)
		if err != nil {
			e.wideErr = err
			return
		}
		suite, err := fleet.ParseSuite(suiteJSON)
		if err != nil {
			e.wideErr = err
			return
		}
		out, err := e.plainRun(nil, suiteJSON, "")
		if err != nil {
			e.wideErr = err
			return
		}
		e.wideIn = &wideInputs{suiteJSON: suiteJSON, scenarios: suite.NumScenarios(), reference: out.digest}
	})
	return e.wideIn, e.wideErr
}

func (in *wideInputs) checkAgainstReference(what, digest string) error {
	if digest != in.reference {
		return fmt.Errorf("%s differs from a plain run of the same suite (digest %.12s, want %.12s)",
			what, digest, in.reference)
	}
	return nil
}

// shardPaths names the two shard files of a durable run: shard 0 writes
// plain JSONL, shard 1 the gzip framing.
func shardPaths(dir string) []string {
	return []string{filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl.gz")}
}

// spanSuffix tells the spans of the gzip shard from those of the plain one.
func spanSuffix(shard int) string {
	if shard == 1 {
		return "_gz"
	}
	return ""
}

// writeShards runs the wide suite as `-shard 0/2` and `-shard 1/2`, each
// with a fresh cache and its own checkpoint file, as two CLI invocations
// would. It returns the digest of the two shard results.
func (e *env) writeShards(tr *tracer, root int32, suiteJSON []byte, paths []string) (string, error) {
	s := tr.begin("suite.parse", root)
	suite, err := fleet.ParseSuite(suiteJSON)
	tr.end(s)
	if err != nil {
		return "", err
	}
	digests := ""
	for i, path := range paths {
		shard := fleet.Shard{Index: i, Count: len(paths)}
		s = tr.begin("io.create", root)
		w, err := fleet.CreateCheckpoint(path, suite, shard)
		tr.end(s)
		if err != nil {
			return "", err
		}
		w.Instrument(e.col) // counts the file's fsyncs on traced passes; nil otherwise
		run := tr.begin("engine.run", root)
		hook := w.Append
		if tr != nil {
			name := "io.append" + spanSuffix(i)
			hook = func(rec fleet.RunRecord) error {
				a := tr.begin(name, run)
				err := w.Append(rec)
				tr.end(a)
				return err
			}
		}
		res, err := fleet.Run(e.ctx, suite, fleet.Config{
			Workers: engineWorkers, Cache: fleet.NewStrategyCache(), Shard: shard, OnRecord: hook,
		})
		tr.end(run)
		if err != nil {
			w.Close()
			return "", err
		}
		s = tr.begin("io.close"+spanSuffix(i), root)
		err = w.Close()
		tr.end(s)
		if err != nil {
			return "", err
		}
		s = tr.begin("result.encode", root)
		d, err := digestResult(res)
		tr.end(s)
		if err != nil {
			return "", err
		}
		digests += d
	}
	return digests, nil
}

// mergeShards is `tolerance-fleet -merge`: read and cross-validate the shard
// files, fold their records, encode the result.
func mergeShards(tr *tracer, root int32, paths []string) (string, error) {
	s := tr.begin("shard.read_set", root)
	suite, records, err := fleet.ReadShardSet(paths)
	tr.end(s)
	if err != nil {
		return "", err
	}
	s = tr.begin("shard.merge", root)
	res, err := fleet.MergeRecords(suite, records)
	tr.end(s)
	if err != nil {
		return "", err
	}
	s = tr.begin("result.encode", root)
	defer tr.end(s)
	return digestResult(res)
}

func (e *env) gridDurable() (*workload, error) {
	in, err := e.wide()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.scratch, "durable")
	paths := shardPaths(dir)
	return &workload{
		name:  "grid-durable",
		unit:  "scenarios",
		units: in.scenarios,
		setup: func() error {
			defer os.RemoveAll(dir)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			return e.coldSetup(in.suiteJSON, paths)
		},
		pass: func(tr *tracer) (outcome, error) {
			root := tr.begin("grid-durable", -1)
			defer tr.end(root)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return outcome{}, err
			}
			digest, err := e.writeShards(tr, root, in.suiteJSON, paths)
			return outcome{digest: digest, attempted: 1, root: root}, err
		},
		after: func() error {
			defer os.RemoveAll(dir)
			merged, err := mergeShards(nil, -1, paths)
			if err != nil {
				return fmt.Errorf("merging the shard files just written: %w", err)
			}
			return in.checkAgainstReference("the merge of the shard files", merged)
		},
	}, nil
}

func (e *env) gridReplay() (*workload, error) {
	in, err := e.wide()
	if err != nil {
		return nil, err
	}
	// The shard files are this workload's input: written once, read by
	// every pass, never modified.
	dir := filepath.Join(e.scratch, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := shardPaths(dir)
	if _, err := e.writeShards(nil, -1, in.suiteJSON, paths); err != nil {
		return nil, err
	}
	var merged string
	return &workload{
		name:  "grid-replay",
		unit:  "records",
		units: 2 * in.scenarios, // every record is folded once by -merge and once by -resume
		setup: func() error {
			setupDir := filepath.Join(e.scratch, "replay-setup")
			defer os.RemoveAll(setupDir)
			if err := os.MkdirAll(setupDir, 0o755); err != nil {
				return err
			}
			return e.coldSetup(in.suiteJSON, shardPaths(setupDir))
		},
		pass: func(tr *tracer) (outcome, error) {
			root := tr.begin("grid-replay", -1)
			defer tr.end(root)
			var err error
			if merged, err = mergeShards(tr, root, paths); err != nil {
				return outcome{}, err
			}
			digests := merged
			// `-resume` of a finished run, once per shard: every scenario
			// folds from its stored record, none executes.
			for i, path := range paths {
				d, err := e.resumeShard(tr, root, in.suiteJSON, path, i)
				if err != nil {
					return outcome{}, err
				}
				digests += d
			}
			return outcome{digest: digests, attempted: 1, root: root}, nil
		},
		after: func() error { return in.checkAgainstReference("the merge of the shard files", merged) },
	}, nil
}

func (e *env) resumeShard(tr *tracer, root int32, suiteJSON []byte, path string, shardIndex int) (string, error) {
	s := tr.begin("suite.parse", root)
	suite, err := fleet.ParseSuite(suiteJSON)
	tr.end(s)
	if err != nil {
		return "", err
	}
	s = tr.begin("io.read"+spanSuffix(shardIndex), root)
	ck, err := fleet.ReadCheckpoint(path)
	tr.end(s)
	if err != nil {
		return "", err
	}
	if got, want := ck.Suite.Fingerprint(), suite.Fingerprint(); got != want {
		return "", fmt.Errorf("checkpoint %s: fingerprint %s, suite has %s", path, got, want)
	}
	s = tr.begin("engine.replay", root)
	res, err := fleet.Run(e.ctx, suite, fleet.Config{
		Workers: engineWorkers, Cache: fleet.NewStrategyCache(), Shard: ck.Shard, Completed: ck.Records,
	})
	tr.end(s)
	if err != nil {
		return "", err
	}
	s = tr.begin("result.encode", root)
	defer tr.end(s)
	return digestResult(res)
}

// leasedRun is the state a coordinator pass leaves for its after step: the
// workers still parked on their lease-wait timers.
type leasedRun struct {
	cancel    context.CancelFunc
	workers   sync.WaitGroup
	endpoints []*transport.TCPEndpoint
	coordDone time.Time
	errs      [engineWorkers]error
}

// stop ends the pass's workers and returns how long the last one took to
// return after Coordinate did. cancelWorkers is what Ctrl-C does; without it
// the workers leave on their own once a lease-wait timer fires and they find
// the drain notice.
func (r *leasedRun) stop(cancelWorkers bool) (time.Duration, error) {
	if cancelWorkers {
		r.cancel()
	}
	r.workers.Wait()
	drain := time.Since(r.coordDone)
	r.cancel()
	for _, ep := range r.endpoints {
		ep.Close()
	}
	for _, err := range r.errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, fleet.ErrDrained) {
			return drain, fmt.Errorf("worker: %w", err)
		}
	}
	return drain, nil
}

// leasedPass runs the suite through a coordinator and two one-thread workers
// over loopback TCP in this process. The returned leasedRun must be stopped.
func (e *env) leasedPass(tr *tracer, suiteJSON []byte) (outcome, *leasedRun, error) {
	root := tr.begin("grid-leased", -1)
	defer tr.end(root)
	s := tr.begin("suite.parse", root)
	suite, err := fleet.ParseSuite(suiteJSON)
	tr.end(s)
	if err != nil {
		return outcome{}, nil, err
	}
	wctx, cancel := context.WithCancel(e.ctx)
	run := &leasedRun{cancel: cancel}
	listen := func() (*transport.TCPEndpoint, error) {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err == nil {
			run.endpoints = append(run.endpoints, ep)
		}
		return ep, err
	}
	coord, err := listen()
	if err != nil {
		run.stop(true)
		return outcome{}, nil, err
	}
	for i := 0; i < engineWorkers; i++ {
		ep, err := listen()
		if err != nil {
			run.stop(true)
			return outcome{}, nil, err
		}
		run.workers.Add(1)
		go func() {
			defer run.workers.Done()
			run.errs[i] = fleet.ConnectWorker(wctx, fleet.WorkerConfig{
				Endpoint: ep, Coordinator: coord.Addr(), Workers: 1, Cache: fleet.NewStrategyCache(),
			})
		}()
	}
	s = tr.begin("coord.run", root)
	res, err := fleet.Coordinate(e.ctx, suite, fleet.CoordinatorConfig{
		Endpoint: coord, Heartbeat: e.sc.heartbeat, Telemetry: e.col,
	})
	tr.end(s)
	run.coordDone = time.Now()
	if err != nil {
		run.stop(true)
		return outcome{}, nil, err
	}
	s = tr.begin("result.encode", root)
	digest, err := digestResult(res)
	tr.end(s)
	if err != nil {
		run.stop(true)
		return outcome{}, nil, err
	}
	return outcome{digest: digest, attempted: 1, root: root}, run, nil
}

func (e *env) gridLeased() (*workload, error) {
	in, err := e.wide()
	if err != nil {
		return nil, err
	}
	var run *leasedRun
	var digest string
	return &workload{
		name:  "grid-leased",
		unit:  "scenarios",
		units: in.scenarios,
		setup: func() error { return e.coldSetup(in.suiteJSON, nil) },
		pass: func(tr *tracer) (outcome, error) {
			out, r, err := e.leasedPass(tr, in.suiteJSON)
			run, digest = r, out.digest
			return out, err
		},
		after: func() error {
			// The clock stopped when the result was encoded. Cancelling
			// the workers is what Ctrl-C does; left alone they sit out a
			// lease-wait timer before they notice the drain, which the
			// traced run reports as worker.drain_s.
			drain, err := run.stop(!e.letWorkersDrain)
			if err != nil {
				return err
			}
			if e.letWorkersDrain {
				e.lastDrain, e.letWorkersDrain = drain, false
			}
			return in.checkAgainstReference("the coordinator's result", digest)
		},
	}, nil
}

func (e *env) solveCold() *workload {
	items := e.sc.solveProblems(e.seed)
	return &workload{
		name:  "solve-cold",
		unit:  "problems",
		units: len(items),
		setup: func() error {
			// A solver run has no caches to fill: its set-up is building
			// the problem list and the first solve of each solver, which
			// pays every one-time cost a later solve does not.
			seen := map[string]bool{}
			for _, it := range e.sc.solveProblems(e.seed) {
				if seen[it.solver] {
					continue
				}
				seen[it.solver] = true
				if _, err := tolerance.Solve(e.ctx, it.problem, it.opts...); err != nil {
					return err
				}
			}
			return nil
		},
		pass:  func(tr *tracer) (outcome, error) { return e.solvePass(tr, items), nil },
		after: func() error { return nil },
	}
}

// solvePass solves the list cold, one problem after another, and checks each
// solution: thresholds within [0, 1], LP availability at least epsilonA.
// The digest covers every float bit of every solution.
func (e *env) solvePass(tr *tracer, items []solveItem) outcome {
	root := tr.begin("solve-cold", -1)
	defer tr.end(root)
	out := outcome{root: root}
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	// check folds one solution into the digest and says whether it is valid.
	check := func(it solveItem, sol *tolerance.Solution) bool {
		ok := true
		if r := sol.Recovery; r != nil {
			put(r.ExpectedCost)
			for _, th := range r.Thresholds {
				put(th)
				ok = ok && th >= 0 && th <= 1
			}
		}
		if r := sol.Replication; r != nil {
			put(r.ExpectedNodes)
			put(r.Availability)
			for _, p := range r.AddProbability {
				put(p)
			}
			// The LP meets the constraint to solver tolerance.
			ok = ok && r.Availability >= it.problem.(tolerance.ReplicationProblem).EpsilonA-1e-9
		}
		return ok
	}
	family, fam := "", int32(-1)
	for _, it := range items {
		if it.family != family {
			tr.end(fam)
			family, fam = it.family, tr.begin("solve."+it.family, root)
		}
		out.attempted++
		sol, err := tolerance.Solve(e.ctx, it.problem, it.opts...)
		if err != nil || !check(it, sol) {
			out.failed++
		}
	}
	tr.end(fam)
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}
