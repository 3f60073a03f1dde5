package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"tolerance/internal/cmdp"
	"tolerance/internal/emulation"
	"tolerance/internal/fleet"
	"tolerance/internal/fleet/proto"
	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
	"tolerance/internal/ppo"
	"tolerance/internal/recovery"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

// perLayerMetrics are the numbers of single layers, printed by a traced run.
// They carry no bound: they say where an end-to-end change came from, and
// README.md says which end-to-end metric each should move.
var perLayerMetrics = []metricDef{
	// internal/emulation: the scenario step, the offline fit, the fold.
	{name: "emulation.deep_scenario_us", unit: "us", better: "lower"},
	{name: "emulation.step_ns", unit: "ns", better: "lower"},
	{name: "emulation.allocs_per_scenario", unit: "count", better: "lower"},
	{name: "emulation.short_scenario_us", unit: "us", better: "lower"},
	{name: "emulation.fit_ms", unit: "ms", better: "lower"},
	{name: "emulation.fold_add_ns", unit: "ns", better: "lower"},
	{name: "emulation.fold_merge_ns", unit: "ns", better: "lower"},
	// The solvers: recovery DP, Algorithm 1, the CMDP LP, BO, PPO.
	{name: "recovery.dp_finite_us", unit: "us", better: "lower"},
	{name: "recovery.dp_arena_us", unit: "us", better: "lower"},
	{name: "recovery.dp_stationary_ms", unit: "ms", better: "lower"},
	{name: "recovery.alg1_eval_us", unit: "us", better: "lower"},
	{name: "cmdp.lp_smax13_us", unit: "us", better: "lower"},
	{name: "cmdp.lp_smax128_ms", unit: "ms", better: "lower"},
	{name: "opt.bo_solve_ms", unit: "ms", better: "lower"},
	{name: "ppo.iteration_ms", unit: "ms", better: "lower"},
	{name: "solve.share_dp_finite", unit: "ratio", better: "lower"},
	{name: "solve.share_dp_stationary", unit: "ratio", better: "lower"},
	{name: "solve.share_lp", unit: "ratio", better: "lower"},
	{name: "solve.share_learned", unit: "ratio", better: "lower"},
	// fleet.StrategyCache.
	{name: "cache.policy_cold_us", unit: "us", better: "lower"},
	{name: "cache.policy_hit_ns", unit: "ns", better: "lower"},
	{name: "cache.recovery_solves", unit: "count", better: "lower"},
	{name: "cache.replication_solves", unit: "count", better: "lower"},
	{name: "cache.policy_builds", unit: "count", better: "lower"},
	// fleet.Run: the worker pool, the ordered fold, the result.
	{name: "engine.run_s", unit: "s", better: "lower"},
	{name: "engine.worker_busy_share", unit: "ratio", better: "higher"},
	{name: "engine.batches_claimed", unit: "count", better: "lower"},
	{name: "engine.fold_merges", unit: "count", better: "lower"},
	{name: "engine.result_encode_ms", unit: "ms", better: "lower"},
	{name: "engine.replay_us_per_record", unit: "us", better: "lower"},
	// fleet/io.go: checkpoint write and read sides; fleet/shard.go.
	{name: "io.append_us", unit: "us", better: "lower"},
	{name: "io.append_gz_us", unit: "us", better: "lower"},
	{name: "io.close_ms", unit: "ms", better: "lower"},
	{name: "io.write_share", unit: "ratio", better: "lower"},
	{name: "io.sync_share", unit: "ratio", better: "lower"},
	{name: "io.bytes_per_record", unit: "B", better: "lower"},
	{name: "io.gz_bytes_per_record", unit: "B", better: "lower"},
	{name: "io.read_us_per_record", unit: "us", better: "lower"},
	{name: "io.read_gz_us_per_record", unit: "us", better: "lower"},
	{name: "shard.merge_us_per_record", unit: "us", better: "lower"},
	// fleet.Coordinate / ConnectWorker, fleet/proto, internal/transport.
	{name: "coord.run_s", unit: "s", better: "lower"},
	{name: "coord.vs_local_ratio", unit: "ratio", better: "lower"},
	{name: "coord.leases_granted", unit: "count", better: "lower"},
	{name: "coord.records_received", unit: "count", better: "lower"},
	{name: "coord.records_duplicate", unit: "count", better: "lower"},
	{name: "coord.heartbeats", unit: "count", better: "lower"},
	{name: "worker.drain_s", unit: "s", better: "lower"},
	{name: "proto.records_encode_us", unit: "us", better: "lower"},
	{name: "proto.records_decode_us", unit: "us", better: "lower"},
	{name: "proto.bytes_per_record", unit: "B", better: "lower"},
	{name: "transport.tcp_rtt_us", unit: "us", better: "lower"},
	{name: "transport.tcp_mb_per_s", unit: "MB/s", better: "higher"},
	// The tracer itself, on the workload the run was asked for.
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// tracedPass is one traced pass with what was read off it when it ended.
type tracedPass struct {
	out  outcome
	wall time.Duration
	snap telemetry.Snapshot
}

// tracedRun is the run behind `-trace 1`: traced passes of every workload,
// then timed loops over the layers' public functions. On its target
// workloads it alternates untraced and traced passes, and their ratio is the
// tracing overhead; on the others two traced passes suffice.
type tracedRun struct {
	e   *env
	tr  *tracer
	rep report
	log io.Writer
	// loopErr is the first error a timed loop's body returned.
	loopErr error
}

// overheadPairs is how many untraced and traced passes of a target workload
// a traced run alternates.
const overheadPairs = 3

// keep remembers a timed loop's first error without stopping the loop.
func (r *tracedRun) keep(err error) {
	if err != nil && r.loopErr == nil {
		r.loopErr = err
	}
}

func (r *tracedRun) set(name string, v float64) { r.rep.set(perLayerMetrics, name, v) }

// runTraced prints every per-layer metric whatever the targets are, so it
// passes through all five workloads once; the targets only decide on which
// of them trace.overhead_share is measured (the largest is reported).
func runTraced(e *env, targets []string, spansPath string, log io.Writer) (report, error) {
	r := &tracedRun{e: e, tr: newTracer(), rep: report{Metrics: map[string]metric{}}, log: log}
	overhead := math.Inf(-1)
	for _, name := range workloadNames {
		isTarget := slices.Contains(targets, name)
		share, err := r.tracePasses(name, isTarget)
		if err != nil {
			return r.rep, err
		}
		if isTarget {
			fmt.Fprintf(log, "%s: tracing overhead %+.4f of an untraced pass\n", name, share)
			overhead = max(overhead, share)
		}
	}
	r.set("trace.overhead_share", overhead)
	if err := r.layerLoops(); err != nil {
		return r.rep, err
	}
	r.rep.Correct = r.rep.Failed == 0
	for _, d := range perLayerMetrics {
		if m, ok := r.rep.Metrics[d.name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return r.rep, fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	if spansPath != "" {
		if err := r.tr.writeFile(spansPath); err != nil {
			return r.rep, err
		}
	}
	fmt.Fprintf(log, "traced run: %d spans; trace.overhead_share is the largest of %v\n", len(r.tr.spans), targets)
	return r.rep, nil
}

// tracePasses makes the workload's traced passes, turns their spans into the
// layers' numbers and, on a target, returns the tracing overhead.
func (r *tracedRun) tracePasses(name string, isTarget bool) (overhead float64, err error) {
	e := r.e
	w, err := e.workload(name)
	if err != nil {
		return 0, err
	}
	check := passChecker{w: w, rep: &r.rep, log: r.log}
	var traced []tracedPass
	var tracedWalls, untracedWalls []float64
	tracedOnce := func() {
		// Telemetry rides along on traced passes only; it supplies the
		// engine's and the coordinator's own counters.
		e.col = telemetry.New()
		coldHeap()
		out, s, ok := check.run(r.tr)
		if ok {
			traced = append(traced, tracedPass{out: out, wall: s.wall, snap: e.col.Snapshot()})
			tracedWalls = append(tracedWalls, s.wall.Seconds())
		}
		e.col = nil
	}
	// One coordinator pass leaves its workers alone, to see how long they
	// take to notice the drain by themselves.
	e.letWorkersDrain = name == "grid-leased"
	if !isTarget {
		tracedOnce()
		tracedOnce()
	} else {
		check.run(nil) // warm-up, so the first untraced pass is not the slow one
		for n := 0; n < overheadPairs; n++ {
			coldHeap()
			if _, s, ok := check.run(nil); ok {
				untracedWalls = append(untracedWalls, s.wall.Seconds())
			}
			tracedOnce()
		}
	}
	if len(traced) == 0 || (isTarget && len(untracedWalls) == 0) {
		return 0, fmt.Errorf("%s: no pass succeeded", name)
	}
	if isTarget {
		fmt.Fprintf(r.log, "%s: where the last traced pass went\n  %-16s %7s %12s %12s\n", name, "span", "calls", "total ms", "self ms")
		for _, l := range r.tr.breakdown(traced[len(traced)-1].out.root) {
			fmt.Fprintf(r.log, "  %-16s %7d %12.3f %12.3f\n", l.name, l.calls, 1e3*l.total.Seconds(), 1e3*l.self.Seconds())
		}
		// The overhead is a small difference of two noisy times. Whatever
		// disturbs a pass only ever adds to it, so the fastest pass of each
		// kind is the cleanest estimate of what that kind costs.
		overhead = slices.Min(tracedWalls)/slices.Min(untracedWalls) - 1
	}
	return overhead, r.spanMetrics(w, traced)
}

// spanMetrics turns a workload's traced passes into its layers' numbers:
// each is computed per pass and the median over the passes is reported.
func (r *tracedRun) spanMetrics(w *workload, passes []tracedPass) error {
	tr := r.tr
	med := func(f func(p tracedPass) float64) float64 {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = f(p)
		}
		return median(vals)
	}
	// spanTime is the pass's total time in spans of the given names.
	spanTime := func(p tracedPass, names ...string) float64 {
		var sum time.Duration
		for _, name := range names {
			sum += tr.total(p.out.root, name)
		}
		return sum.Seconds()
	}
	last := passes[len(passes)-1].snap
	switch w.name {
	case "grid-deep":
		r.set("engine.run_s", med(func(p tracedPass) float64 { return spanTime(p, "engine.run") }))
		r.set("engine.result_encode_ms", med(func(p tracedPass) float64 { return 1e3 * spanTime(p, "result.encode") }))
		r.set("engine.worker_busy_share", med(func(p tracedPass) float64 {
			// Busy time over the pool's capacity while scenarios ran: the
			// engine's own "fleet.run" phase leaves the single-threaded
			// fit out.
			for _, ph := range p.snap.Phases {
				if ph.Name == "fleet.run" {
					return float64(p.snap.Counter(fleet.MetricWorkerBusyNS)) / 1e9 / (engineWorkers * ph.Seconds)
				}
			}
			return math.NaN()
		}))
		r.set("engine.batches_claimed", float64(last.Counter(fleet.MetricBatchesClaimed)))
		r.set("engine.fold_merges", float64(last.Counter(fleet.MetricFoldMerges)))
	case "grid-durable":
		r.set("io.close_ms", med(func(p tracedPass) float64 { return 1e3 * spanTime(p, "io.close", "io.close_gz") / 2 }))
		r.set("io.write_share", med(func(p tracedPass) float64 {
			return spanTime(p, "io.append", "io.append_gz", "io.close", "io.close_gz") / tr.duration(p.out.root).Seconds()
		}))
		// The appends that flushed and fsynced are each file's slowest, as
		// many as the writer itself counted (both files sync at one cadence);
		// what they took beyond an ordinary append is time the pass waited
		// for the disk.
		r.set("io.sync_share", med(func(p tracedPass) float64 {
			syncs := int(p.snap.Counter(fleet.MetricCheckpointSyncs)) / 2
			var wait float64
			for _, name := range []string{"io.append", "io.append_gz"} {
				d := tr.durations(p.out.root, name)
				slices.Sort(d)
				ordinary := d[len(d)/2]
				for _, v := range d[max(len(d)-syncs, 0):] {
					wait += (v - ordinary).Seconds()
				}
			}
			return wait / tr.duration(p.out.root).Seconds()
		}))
	case "grid-replay":
		perFile := float64(w.units) / 4 // each record is in one of two files and folded twice
		r.set("io.read_us_per_record", med(func(p tracedPass) float64 { return 1e6 * spanTime(p, "io.read") / perFile }))
		r.set("io.read_gz_us_per_record", med(func(p tracedPass) float64 { return 1e6 * spanTime(p, "io.read_gz") / perFile }))
		r.set("shard.merge_us_per_record", med(func(p tracedPass) float64 { return 1e6 * spanTime(p, "shard.merge") / (2 * perFile) }))
		r.set("engine.replay_us_per_record", med(func(p tracedPass) float64 { return 1e6 * spanTime(p, "engine.replay") / (2 * perFile) }))
		for i, name := range []string{"io.bytes_per_record", "io.gz_bytes_per_record"} {
			st, err := os.Stat(shardPaths(filepath.Join(r.e.scratch, "replay"))[i])
			if err != nil {
				return err
			}
			r.set(name, float64(st.Size())/perFile)
		}
	case "grid-leased":
		coord := med(func(p tracedPass) float64 { return spanTime(p, "coord.run") })
		r.set("coord.run_s", coord)
		// The same suite in one process, measured here so both sides of the
		// ratio come from the same minutes of the same host, and the
		// fastest run of each side, as for trace.overhead_share.
		in, err := r.e.wide()
		if err != nil {
			return err
		}
		fastest := math.Inf(1)
		for _, p := range passes {
			fastest = min(fastest, spanTime(p, "coord.run"))
		}
		local := math.Inf(1)
		for i := 0; i < 2; i++ {
			coldHeap()
			out, err := r.e.plainRun(tr, in.suiteJSON, "wide-local")
			if err != nil {
				return err
			}
			local = min(local, tr.total(out.root, "engine.run").Seconds())
		}
		r.set("coord.vs_local_ratio", fastest/local)
		r.set("coord.leases_granted", float64(last.Counter(fleet.MetricCoordLeasesGranted)))
		r.set("coord.records_received", float64(last.Counter(fleet.MetricCoordRecordsReceived)))
		r.set("coord.records_duplicate", float64(last.Counter(fleet.MetricCoordRecordsReplayed)))
		r.set("coord.heartbeats", float64(last.Counter(fleet.MetricCoordHeartbeats)))
		r.set("worker.drain_s", r.e.lastDrain.Seconds())
	case "solve-cold":
		for _, family := range solveFamilies {
			r.set("solve.share_"+family, med(func(p tracedPass) float64 {
				return spanTime(p, "solve."+family) / tr.duration(p.out.root).Seconds()
			}))
		}
	}
	return nil
}

// perOp times n calls of f, three times over, and returns the median time
// per call in nanoseconds.
func perOp(n int, f func()) float64 {
	samples := make([]float64, 3)
	for i := range samples {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			f()
		}
		samples[i] = float64(time.Since(t0)) / float64(n)
	}
	return median(samples)
}

// layerLoops times the layers' public functions directly, in loops long
// enough to read, on inputs taken from the workloads' own suites.
func (r *tracedRun) layerLoops() error {
	e := r.e
	n := func(count int) int { return max(count/e.sc.loopDiv, 2) }
	keep := r.keep

	// internal/emulation, on the deep suite's largest TOLERANCE cell.
	deepJSON, err := e.sc.deepSuiteJSON(e.seed)
	if err != nil {
		return err
	}
	deep, err := fleet.ParseSuite(deepJSON)
	if err != nil {
		return err
	}
	fitSeed := emulation.FitStreamSeed(deep.Seed)
	r.set("emulation.fit_ms", perOp(1, func() {
		_, err := emulation.NewFitSet(deep.FitSamples, fitSeed)
		keep(err)
	})/1e6)
	cache := fleet.NewStrategyCache()
	fits, err := cache.Fits(deep.FitSamples, fitSeed)
	if err != nil {
		return err
	}
	var cell fleet.Cell
	for _, c := range deep.Cells() {
		if c.Policy == fleet.PolicyTolerance && c.N1 >= cell.N1 {
			cell = c
		}
	}
	policy, err := cache.PolicyFor(e.ctx, cell, deep)
	if err != nil {
		return err
	}
	params := nodemodel.DefaultParams()
	params.PA, params.PC1, params.PC2, params.PU, params.Eta = cell.PA, cell.PC1, cell.PC2, cell.PU, cell.Eta
	scenario := emulation.Scenario{
		N1: cell.N1, SMax: cell.SMax, K: cell.K, F: cell.F, DeltaR: cell.DeltaR,
		Steps: deep.Steps, Params: params, Policy: policy,
		FitSamples: deep.FitSamples, FitSeed: fitSeed, Fits: fits, Workload: cell.Workload,
	}
	runner := emulation.NewRunner()
	var metrics emulation.Metrics
	runOne := func() {
		scenario.Seed++
		var err error
		metrics, err = runner.RunInto(scenario)
		keep(err)
	}
	runOne() // sizes the runner
	deepNS := perOp(n(200), runOne)
	r.set("emulation.deep_scenario_us", deepNS/1e3)
	r.set("emulation.step_ns", deepNS/float64(scenario.Steps))
	m0 := mallocs()
	for i := 0; i < n(400); i++ {
		runOne()
	}
	r.set("emulation.allocs_per_scenario", float64(mallocs()-m0)/float64(n(400)))
	scenario.Steps = e.sc.wideSteps
	r.set("emulation.short_scenario_us", perOp(n(2000), runOne)/1e3)

	var acc, other emulation.Accumulator
	other.Add(&metrics)
	r.set("emulation.fold_add_ns", perOp(n(2_000_000), func() { acc.Add(&metrics) }))
	r.set("emulation.fold_merge_ns", perOp(n(2_000_000), func() { acc.Merge(&other) }))

	// The solvers, on the Table 8 node model.
	dpParams := nodemodel.DefaultParams()
	r.set("recovery.dp_finite_us", perOp(n(400), func() {
		_, err := recovery.SolveDP(dpParams, recovery.DPConfig{DeltaR: 15})
		keep(err)
	})/1e3)
	arena := recovery.NewArena()
	r.set("recovery.dp_arena_us", perOp(n(400), func() {
		_, err := recovery.SolveDPWith(dpParams, recovery.DPConfig{DeltaR: 15}, arena)
		keep(err)
	})/1e3)
	r.set("recovery.dp_stationary_ms", perOp(n(4), func() {
		_, err := recovery.SolveDP(dpParams, recovery.DPConfig{DeltaR: recovery.InfiniteDeltaR})
		keep(err)
	})/1e6)
	algorithm1 := func(optimizer string, budget int) {
		po, _ := opt.ByName(optimizer)
		_, err := recovery.Algorithm1(e.ctx, dpParams, recovery.Algorithm1Config{
			DeltaR: e.sc.learnedSolveDeltaR, Optimizer: po, Budget: budget,
			Episodes: 50, Horizon: 200, Seed: e.seed, Workers: engineWorkers,
		})
		keep(err)
	}
	r.set("recovery.alg1_eval_us", perOp(1, func() { algorithm1("cem", e.sc.learnedBudget) })/1e3/float64(e.sc.learnedBudget))
	r.set("opt.bo_solve_ms", perOp(1, func() { algorithm1("bo", e.sc.boBudget) })/1e6)
	r.set("ppo.iteration_ms", perOp(1, func() {
		_, err := ppo.Train(e.ctx, dpParams, ppo.Config{
			DeltaR: e.sc.learnedSolveDeltaR, Iterations: e.sc.ppoIterations, Seed: e.seed, Workers: engineWorkers,
		})
		keep(err)
	})/1e6/float64(e.sc.ppoIterations))
	for _, lp := range []struct {
		name string
		smax int
		reps int
		div  float64
	}{{"cmdp.lp_smax13_us", 13, n(400), 1e3}, {"cmdp.lp_smax128_ms", 128, n(4), 1e6}} {
		model, err := cmdp.NewBinomialModel(lp.smax, 2, 0.9, 0.95, 0)
		if err != nil {
			return err
		}
		r.set(lp.name, perOp(lp.reps, func() {
			_, err := cmdp.Solve(model)
			keep(err)
		})/lp.div)
	}

	// fleet.StrategyCache, on the wide suite: every cell once cold, then
	// every cell again from the cache.
	in, err := e.wide()
	if err != nil {
		return err
	}
	wide, err := fleet.ParseSuite(in.suiteJSON)
	if err != nil {
		return err
	}
	cells := wide.Cells()
	cache = fleet.NewStrategyCache()
	resolveAll := func() {
		for _, c := range cells {
			_, err := cache.PolicyFor(e.ctx, c, wide)
			keep(err)
		}
	}
	t0 := time.Now()
	resolveAll()
	cold := time.Since(t0)
	stats := cache.Stats()
	r.set("cache.policy_cold_us", float64(cold.Microseconds())/float64(stats.PolicyBuilds))
	r.set("cache.policy_hit_ns", perOp(1, resolveAll)/float64(len(cells)))
	r.set("cache.recovery_solves", float64(stats.RecoverySolves))
	r.set("cache.replication_solves", float64(stats.ReplicationSolves))
	r.set("cache.policy_builds", float64(stats.PolicyBuilds))

	// fleet/io.go's write side, record by record (fsync cadence included).
	dir := filepath.Join(e.scratch, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	record := fleet.RunRecord{Metrics: metrics}
	for i, name := range []string{"io.append_us", "io.append_gz_us"} {
		w, err := fleet.CreateCheckpoint(shardPaths(dir)[i], wide, fleet.Shard{})
		if err != nil {
			return err
		}
		r.set(name, perOp(n(4000), func() {
			record.Index++
			keep(w.Append(record))
		})/1e3)
		if err := w.Close(); err != nil {
			return err
		}
	}

	// fleet/proto: one worker batch of records, framed and unframed.
	const batchRecords = 64
	batch := proto.Records{LeaseID: 1}
	for i := 0; i < batchRecords; i++ {
		raw, err := json.Marshal(fleet.RunRecord{Index: i, Metrics: metrics})
		if err != nil {
			return err
		}
		batch.Records = append(batch.Records, raw)
	}
	var frame []byte
	r.set("proto.records_encode_us", perOp(n(400), func() {
		var err error
		frame, err = proto.Encode(proto.KindRecords, batch)
		keep(err)
	})/1e3)
	r.set("proto.records_decode_us", perOp(n(400), func() {
		_, payload, err := proto.Decode(frame)
		keep(err)
		var got proto.Records
		keep(proto.Unmarshal(payload, &got))
	})/1e3)
	r.set("proto.bytes_per_record", float64(len(frame))/batchRecords)

	if err := r.transportLoops(n(2000), n(1000)); err != nil {
		return err
	}
	return r.loopErr
}

// transportLoops measures internal/transport between loopback TCP endpoints:
// the round trip of a 4 KiB frame and the one-way rate of 64 KiB frames.
func (r *tracedRun) transportLoops(trips, frames int) error {
	var eps [3]*transport.TCPEndpoint
	for i := range eps {
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ep.Close()
		eps[i] = ep
	}
	client, echo, sink := eps[0], eps[1], eps[2]
	go func() {
		for msg := range echo.Receive() {
			_ = echo.Send(msg.From, msg.Payload) // a lost echo shows as the timeout below
		}
	}()
	receive := func(ep *transport.TCPEndpoint) error {
		select {
		case <-ep.Receive():
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("transport: no frame within 10 s")
		}
	}
	small := make([]byte, 4<<10)
	r.set("transport.tcp_rtt_us", perOp(trips, func() {
		if r.loopErr != nil {
			return // a lost frame would otherwise cost every later trip its timeout
		}
		r.keep(client.Send(echo.Addr(), small))
		r.keep(receive(client))
	})/1e3)
	if r.loopErr != nil {
		return r.loopErr
	}

	// The endpoint's inbox holds 4096 frames and drops beyond that, so the
	// burst stays below it.
	frames = min(frames, 4000)
	large := make([]byte, 64<<10)
	sent := make(chan error, 1)
	t0 := time.Now()
	go func() {
		for i := 0; i < frames; i++ {
			if err := client.Send(sink.Addr(), large); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for i := 0; i < frames; i++ {
		if err := receive(sink); err != nil {
			return err
		}
	}
	elapsed := time.Since(t0)
	if err := <-sent; err != nil {
		return err
	}
	r.set("transport.tcp_mb_per_s", float64(frames)*float64(len(large))/(1<<20)/elapsed.Seconds())
	return nil
}
