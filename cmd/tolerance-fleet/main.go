// tolerance-fleet runs scenario suites on the parallel fleet engine: a
// suite grid — built-in or loaded from a JSON definition — expands to
// hundreds of emulation scenarios, executes on a bounded worker pool with
// deterministic per-scenario seeding, and streams per-cell T(A), T(R),
// F(R), node-count and cost summaries.
//
// Policy kinds resolve through the strategy registry, so suites can grid
// the exact DP strategy, the baselines, and the learned kinds
// ("learned:cem", "learned:ppo", ...) side by side; -list-strategies shows
// every registered kind. Ctrl-C cancels cleanly: with -checkpoint the
// completed prefix survives and the run restarts with -resume.
//
// Single-machine runs:
//
//	tolerance-fleet -list
//	tolerance-fleet -list-strategies
//	tolerance-fleet -suite learned-smoke
//	tolerance-fleet -suite paper-grid -workers 8
//	tolerance-fleet -suite scada-sweep -format csv > scada.csv
//	tolerance-fleet -dump-suite paper-grid > grid.json
//	tolerance-fleet -suite-file grid.json -format json
//
// Scale-out runs — shard a grid across machines, survive kills, and fold
// the pieces back together. A .gz checkpoint suffix gzip-compresses the
// record stream for very large grids; -resume and -merge read it
// transparently. -learned-workers parallelizes each learned:* training run
// (bit-identical output at any value):
//
//	tolerance-fleet -suite-file grid.json -shard 0/2 -checkpoint s0.jsonl   # machine A
//	tolerance-fleet -suite-file grid.json -shard 1/2 -checkpoint s1.jsonl   # machine B
//	tolerance-fleet -merge -format json s0.jsonl s1.jsonl                   # anywhere
//	tolerance-fleet -suite-file grid.json -checkpoint run.jsonl -resume     # after a kill
//	tolerance-fleet -suite-file grid.json -checkpoint run.jsonl.gz          # compressed records
//	tolerance-fleet -suite learned-smoke -learned-workers 8                 # parallel training
//
// Distributed runs — one coordinator owns the suite and leases
// index-contiguous scenario ranges to workers over TCP; workers need no
// suite file (it travels in the handshake). Leases from workers that stop
// heartbeating are re-leased, so worker crashes cost bounded rework; a
// coordinator crash resumes from its checkpoint. The merged stdout is
// byte-identical to a single-machine run of the same suite (see
// docs/OPERATIONS.md for the runbook):
//
//	tolerance-fleet -serve :7001 -suite-file grid.json -checkpoint run.jsonl
//	tolerance-fleet -connect hostA:7001 -workers 8                          # each machine
//	tolerance-fleet -connect hostA:7001 -listen 0.0.0.0:7002 -advertise hostB:7002
//
// Output is deterministic: the same suite and seed produce byte-identical
// results for any -workers value, and merging a complete shard set
// reproduces the unsharded output byte-for-byte. Telemetry — the progress
// meter, the post-run summary, -metrics-addr and -manifest — travels on
// side channels only (stderr, the manifest file, the HTTP endpoint); stdout
// carries only deterministic quantities, so suite output is byte-identical
// with telemetry on or off.
//
// Introspection:
//
//	tolerance-fleet -suite paper-grid -metrics-addr :8417       # curl /metrics, /debug/pprof/heap
//	tolerance-fleet -suite paper-grid -manifest run.json        # run manifest trailer
//	tolerance-fleet -suite paper-grid -checkpoint r.jsonl       # + implicit r.jsonl.manifest.json
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"tolerance/internal/chaos"
	"tolerance/internal/fleet"
	"tolerance/internal/strategies"
	"tolerance/internal/telemetry"
	"tolerance/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tolerance-fleet:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	suiteName := flag.String("suite", "paper-grid", "built-in suite to run (-list shows all)")
	listStrategies := flag.Bool("list-strategies", false, "list registered strategies (valid policy kinds) and exit")
	suiteFile := flag.String("suite-file", "", "JSON suite definition to run instead of a built-in (see -dump-suite)")
	dumpSuite := flag.String("dump-suite", "", "print the named built-in suite as JSON (with overrides applied) and exit")
	list := flag.Bool("list", false, "list built-in suites and exit")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 0, "override the suite master seed (0 = suite default)")
	steps := flag.Int("steps", 0, "override steps per scenario (0 = suite default)")
	seedsPerCell := flag.Int("seeds", 0, "override seeds per grid cell (0 = suite default)")
	fitSamples := flag.Int("fit", 0, "override Ẑ-estimation samples (0 = suite default)")
	learnedWorkers := flag.Int("learned-workers", 0, "concurrent evaluations inside each learned:* training run (0 = suite value, else GOMAXPROCS); output is bit-identical for any value")
	shardSpec := flag.String("shard", "", "run only shard i of n (\"i/n\"); requires -checkpoint to keep the shard's records")
	serveAddr := flag.String("serve", "", "run as the fleet coordinator: listen on this address (e.g. \":7001\"), lease scenario ranges to -connect workers, and print the merged result")
	connectAddr := flag.String("connect", "", "run as a remote fleet worker for the coordinator at this host:port; the suite arrives over the wire")
	listenAddr := flag.String("listen", "127.0.0.1:0", "worker bind address for coordinator replies (use a routable IP for cross-machine runs)")
	advertiseAddr := flag.String("advertise", "", "worker address the coordinator should dial back (defaults to -listen's bound address; needed when binding 0.0.0.0 or behind NAT)")
	leaseScenarios := flag.Int("lease", 0, "coordinator: scenarios per lease (0 = total/16 clamped to [1,256])")
	heartbeat := flag.Duration("heartbeat", fleet.DefaultHeartbeat, "coordinator: worker keep-alive interval advertised in the handshake; a lease silent for 5 intervals is re-leased")
	checkpoint := flag.String("checkpoint", "", "record completed scenarios to this file (JSONL; a .gz suffix gzips it, and -resume/-merge read .gz transparently); doubles as the shard result file")
	resume := flag.Bool("resume", false, "load the -checkpoint file first and skip scenarios it already holds")
	merge := flag.Bool("merge", false, "fold the shard/checkpoint files given as arguments into the full-suite result and print it")
	format := flag.String("format", "table", "output format: table | json | csv")
	quiet := flag.Bool("quiet", false, "suppress the progress meter and telemetry summary on stderr")
	metricsAddr := flag.String("metrics-addr", "", "serve live telemetry on this address: /metrics (JSON snapshot), /debug/vars, /debug/pprof/* (\":0\" picks a free port, printed to stderr)")
	manifestPath := flag.String("manifest", "", "write the run manifest JSON to this file (\"-\" = stderr; defaults to <checkpoint>.manifest.json when -checkpoint is set)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	chaosProfile := flag.String("chaos-profile", "", "arm the seeded fault-injection plane with this profile ("+strings.Join(chaos.Profiles(), " | ")+"); faults hit the transport and checkpoint layers only — the result must stay byte-identical")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the chaos plan's deterministic fault schedule")
	chaosDescribe := flag.Bool("chaos-describe", false, "print the armed chaos plan (profile, seed, schedule digest) and exit")
	flag.Parse()

	stopProfiles, err := telemetry.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	// The chaos plan arms before any transport or checkpoint exists, so
	// every layer below sees the same seeded schedule. -chaos-describe is
	// the out-of-band certificate: CI compares its digest against the
	// chaos.plan_digest gauge in each process's manifest.
	var plan *chaos.Plan
	if *chaosProfile != "" {
		plan, err = chaos.NewPlanByName(*chaosProfile, *chaosSeed)
		if err != nil {
			return err
		}
	}
	if *chaosDescribe {
		if plan == nil {
			return fmt.Errorf("-chaos-describe needs -chaos-profile")
		}
		fmt.Println(plan.Describe())
		return nil
	}

	// Telemetry is always collected (recording is allocation-free and all
	// reporting stays off stdout); -metrics-addr additionally serves it live.
	col := telemetry.New()
	plan.Instrument(col)
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, col)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/metrics\n", srv.Addr())
	}

	switch {
	case *list:
		for _, s := range fleet.Builtin() {
			backend := ""
			if len(s.Backends) > 0 {
				backend = fmt.Sprintf("  [backend: %s]", strings.Join(s.Backends, ","))
			}
			fmt.Printf("%-13s %4d scenarios, %3d cells  %s%s\n",
				s.Name, s.NumScenarios(), s.NumCells(), s.Description, backend)
		}
		return nil
	case *listStrategies:
		for _, name := range strategies.Names() {
			s, ok := strategies.Lookup(name)
			if !ok {
				continue
			}
			fmt.Printf("%-18s %s\n", name, s.Describe())
		}
		return nil
	case *merge:
		return runMerge(flag.Args(), *format, col, *manifestPath, *quiet)
	case *connectAddr != "":
		if *serveAddr != "" {
			return fmt.Errorf("-serve and -connect are different roles; run them as separate processes")
		}
		if *checkpoint != "" || *shardSpec != "" || *resume || *suiteFile != "" || *dumpSuite != "" {
			return fmt.Errorf("-connect workers take no suite or checkpoint flags; the coordinator owns both")
		}
		return runConnect(*connectAddr, *listenAddr, *advertiseAddr, *workers, col, plan, *quiet)
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v (shard files are only accepted with -merge)", flag.Args())
	}

	var suite fleet.Suite
	if *suiteFile != "" {
		if *dumpSuite != "" {
			return fmt.Errorf("-dump-suite names a built-in suite and conflicts with -suite-file")
		}
		suite, err = fleet.LoadSuiteFile(*suiteFile)
	} else {
		name := *suiteName
		if *dumpSuite != "" {
			name = *dumpSuite
		}
		suite, err = fleet.Lookup(name)
	}
	if err != nil {
		return err
	}
	if *seed != 0 {
		suite.Seed = *seed
	}
	if *steps != 0 {
		suite.Steps = *steps
	}
	if *seedsPerCell != 0 {
		suite.SeedsPerCell = *seedsPerCell
	}
	if *fitSamples != 0 {
		suite.FitSamples = *fitSamples
	}
	if *learnedWorkers != 0 {
		if *learnedWorkers < 0 {
			return fmt.Errorf("-learned-workers %d: must be >= 0", *learnedWorkers)
		}
		// A throughput knob only: it is excluded from the suite fingerprint,
		// so checkpoints and shards taken at other values stay compatible.
		lc := fleet.LearnedConfig{}
		if suite.Learned != nil {
			lc = *suite.Learned
		}
		lc.Workers = *learnedWorkers
		suite.Learned = &lc
	}

	if *dumpSuite != "" {
		data, err := fleet.DumpSuite(suite)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}

	var shard fleet.Shard
	if *shardSpec != "" {
		if *serveAddr != "" {
			return fmt.Errorf("-serve and -shard conflict: the coordinator always owns the whole suite and leases ranges itself")
		}
		if shard, err = fleet.ParseShard(*shardSpec); err != nil {
			return err
		}
		if !shard.IsWhole() && *checkpoint == "" {
			return fmt.Errorf("-shard %s needs -checkpoint to keep the shard's records for -merge", shard)
		}
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}

	cache := fleet.NewStrategyCache()
	cache.Instrument(col)
	cfg := fleet.Config{
		Workers: *workers, Cache: cache, Shard: shard, Telemetry: col, Chaos: plan,
	}
	if plan != nil && !*quiet {
		fmt.Fprintf(os.Stderr, "%s\n", plan.Describe())
	}
	if !*quiet {
		// The meter throttles itself to ~10 Hz wall-clock, so the engine's
		// per-fold callback does not turn into thousands of stderr writes a
		// second on fast grids.
		meter := telemetry.NewMeter(os.Stderr)
		meter.Extra = func() string { return cacheHitRate(cache.Stats()) }
		cfg.Progress = func(done, total int) {
			meter.Progress(done, total)
			if done == total {
				meter.Finish()
			}
		}
	}

	// Wire the checkpoint: on resume, reload prior records and append;
	// otherwise start a fresh file.
	var writer *fleet.CheckpointWriter
	if *checkpoint != "" {
		if *resume {
			endRead := col.Phase("fleet.read")
			ck, err := fleet.ReadCheckpoint(*checkpoint)
			endRead()
			if err != nil {
				return err
			}
			if got, want := ck.Suite.Fingerprint(), suite.Fingerprint(); got != want {
				return fmt.Errorf("checkpoint %s was written by a different suite (fingerprint %s, this run %s); "+
					"re-check the suite file and overrides", *checkpoint, got, want)
			}
			if ck.Shard.String() != shard.String() {
				return fmt.Errorf("checkpoint %s covers shard %s, this run is shard %s",
					*checkpoint, ck.Shard, shard)
			}
			cfg.Completed = ck.Records
			if !*quiet {
				fmt.Fprintf(os.Stderr, "resuming: %d scenarios already complete", ck.Records.Len())
				if ck.Corrupted > 0 {
					// A damaged line holds no record, so its scenario runs again.
					fmt.Fprintf(os.Stderr, ", %d damaged checkpoint lines skipped", ck.Corrupted)
				}
				fmt.Fprintln(os.Stderr)
			}
			writer, err = fleet.AppendCheckpoint(*checkpoint, ck, col)
		} else {
			writer, err = fleet.CreateCountedCheckpoint(*checkpoint, suite, shard, col)
		}
		if err != nil {
			return err
		}
		defer func() {
			if writer != nil {
				writer.Close()
			}
		}()
		if plan != nil {
			// Disk faults (torn tails, bit rot) hit only record lines: the
			// sink interposes below the JSON encoder, so the header written
			// by Create/Append is already safely past.
			writer.InterposeSink(plan.WrapCheckpointSink)
		}
		cfg.OnRecord = writer.Append
	}

	// Ctrl-C / SIGTERM cancels the context: the worker pool drains
	// promptly and any -checkpoint file keeps the completed index-ordered
	// prefix, so an interrupted run restarts with -resume. After the first
	// signal the handler is released, so a second Ctrl-C force-kills.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	manifest := telemetry.NewManifest()
	var res *fleet.Result
	if *serveAddr != "" {
		// Coordinator mode: same suite, checkpoint and resume wiring as a
		// local run, but execution happens on -connect workers. On SIGINT
		// the drain broadcast goes out before we return, and the checkpoint
		// keeps the ingested index-ordered prefix for -resume.
		ep, eperr := transport.ListenTCP(*serveAddr)
		if eperr != nil {
			return eperr
		}
		defer ep.Close()
		col.CounterFunc(fleet.MetricFramesQuarantined, ep.QuarantinedFrames)
		col.CounterFunc(fleet.MetricFramesDropped, ep.DroppedFrames)
		ccfg := fleet.CoordinatorConfig{
			Endpoint:       plan.WrapEndpoint(ep),
			LeaseScenarios: *leaseScenarios,
			Heartbeat:      *heartbeat,
			Completed:      cfg.Completed,
			OnRecord:       cfg.OnRecord,
			Progress:       cfg.Progress,
			Telemetry:      col,
		}
		if !*quiet {
			ccfg.Logf = stderrLogf
			fmt.Fprintf(os.Stderr, "coordinator: listening on %s\n", ep.Addr())
		}
		res, err = fleet.Coordinate(ctx, suite, ccfg)
	} else {
		res, err = fleet.Run(ctx, suite, cfg)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && *checkpoint != "" {
			fmt.Fprintf(os.Stderr, "interrupted: %s keeps the completed prefix; rerun with -resume\n", *checkpoint)
		}
		return err
	}
	if writer != nil {
		if err := writer.Close(); err != nil {
			return err
		}
		writer = nil
	}
	if !*quiet {
		printSummary(os.Stderr, col.Snapshot())
	}
	mp := *manifestPath
	if mp == "" && *checkpoint != "" {
		mp = *checkpoint + ".manifest.json"
	}
	if mp != "" {
		manifest.Suite = suite.Name
		manifest.Fingerprint = suite.Fingerprint()
		manifest.Seed = suite.Seed
		manifest.Shard = shard.String()
		manifest.Scenarios = res.Scenarios
		manifest.Workers = *workers
		if manifest.Workers <= 0 {
			manifest.Workers = runtime.GOMAXPROCS(0)
		}
		manifest.Finish(col)
		if err := manifest.WriteFile(mp); err != nil {
			return err
		}
		if !*quiet && mp != "-" {
			fmt.Fprintf(os.Stderr, "manifest: %s\n", mp)
		}
	}
	return writeResult(os.Stdout, res, *format)
}

// runConnect runs the worker role: join the coordinator, execute leased
// scenario ranges on the local pool, stream the records back, and exit on
// drain. Ctrl-C drains gracefully — the completed prefix of the current
// lease is already shipped, and a Goodbye lets the coordinator re-lease
// the remainder immediately.
func runConnect(coordAddr, listen, advertise string, workers int, col *telemetry.Collector, plan *chaos.Plan, quiet bool) error {
	ep, err := transport.ListenTCPAdvertise(listen, advertise)
	if err != nil {
		return err
	}
	defer ep.Close()
	col.CounterFunc(fleet.MetricFramesQuarantined, ep.QuarantinedFrames)
	col.CounterFunc(fleet.MetricFramesDropped, ep.DroppedFrames)

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals() // a second Ctrl-C force-kills
	}()

	cache := fleet.NewStrategyCache()
	cache.Instrument(col)
	wcfg := fleet.WorkerConfig{
		Endpoint:    plan.WrapEndpoint(ep),
		Coordinator: coordAddr,
		Workers:     workers,
		Cache:       cache,
		Telemetry:   col,
		Chaos:       plan,
	}
	if !quiet {
		wcfg.Logf = stderrLogf
		fmt.Fprintf(os.Stderr, "worker: %s -> coordinator %s\n", ep.Addr(), coordAddr)
		if plan != nil {
			fmt.Fprintf(os.Stderr, "%s\n", plan.Describe())
		}
	}
	err = fleet.ConnectWorker(ctx, wcfg)
	switch {
	case errors.Is(err, fleet.ErrDrained):
		// The run was already complete when we arrived; not a failure.
		if !quiet {
			fmt.Fprintln(os.Stderr, "worker: coordinator had no work")
		}
		return nil
	case errors.Is(err, context.Canceled):
		if !quiet {
			fmt.Fprintln(os.Stderr, "worker: interrupted; coordinator notified")
		}
		return nil
	case err != nil:
		return err
	}
	if !quiet {
		printSummary(os.Stderr, col.Snapshot())
	}
	return nil
}

// stderrLogf is the coordinator/worker operational log sink: one line per
// event on stderr, never stdout.
func stderrLogf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// cacheHitRate renders the strategy cache's hit rate for the meter line
// ("" until there have been any requests). Arena reuses are excluded: they
// count slab recycling inside solves, not requests answered from cache.
func cacheHitRate(stats fleet.CacheStats) string {
	hits := stats.PolicyHits + stats.RecoveryHits + stats.ReplicationHits + stats.FitHits
	misses := stats.PolicyBuilds + stats.RecoverySolves + stats.ReplicationSolves + stats.FitSolves
	if hits+misses == 0 {
		return ""
	}
	return fmt.Sprintf("cache %.0f%% hit", 100*float64(hits)/float64(hits+misses))
}

// printSummary reports the run's headline numbers from the telemetry
// snapshot — the single source of truth the manifest and /metrics read
// too, so -quiet, -merge and resume runs can never disagree with it.
func printSummary(w io.Writer, s telemetry.Snapshot) {
	folded := s.Counter(fleet.MetricScenariosFolded)
	replayed := s.Counter(fleet.MetricScenariosReplayed)
	line := fmt.Sprintf("telemetry: %d scenarios folded", folded)
	if replayed > 0 {
		line += fmt.Sprintf(" (%d replayed from checkpoint)", replayed)
	}
	for _, p := range s.Phases {
		if p.Name == "fleet.run" && p.Seconds > 0 {
			line += fmt.Sprintf(", %.0f scenarios/s", float64(folded-replayed)/p.Seconds)
			break
		}
	}
	// Merge-only and fully-replayed resume runs never touch the strategy
	// cache; a zero-valued cache line there would misread as "ran but
	// solved nothing", so it is printed only when the cache saw traffic.
	builds := s.Counter("cache.policy_builds")
	solves := s.Counter("cache.recovery_solves") + s.Counter("cache.replication_solves") +
		s.Counter("cache.fit_solves")
	hits := s.Counter("cache.policy_hits") + s.Counter("cache.recovery_hits") +
		s.Counter("cache.replication_hits") + s.Counter("cache.fit_hits")
	if builds+solves+hits > 0 {
		line += fmt.Sprintf("; strategy cache: %d policies built, %d solves, %d hits", builds, solves, hits)
	}
	fmt.Fprintln(w, line)
}

// runMerge folds a complete shard set back into the single-machine result.
// Merged records count as replayed folds on the collector, so the summary
// and an optional -manifest report through the same snapshot a live run
// uses; the fleet.read and fleet.merge phases split its time between
// reading the files and folding their records.
func runMerge(paths []string, format string, col *telemetry.Collector, manifestPath string, quiet bool) error {
	manifest := telemetry.NewManifest()
	endRead := col.Phase("fleet.read")
	suite, records, err := fleet.ReadShardSet(paths)
	endRead()
	if err != nil {
		return err
	}
	endMerge := col.Phase("fleet.merge")
	res, err := fleet.MergeRecords(suite, records)
	endMerge()
	if err != nil {
		return err
	}
	col.Counter(fleet.MetricScenariosFolded).Add(int64(records.Len()))
	col.Counter(fleet.MetricScenariosReplayed).Add(int64(records.Len()))
	if !quiet {
		printSummary(os.Stderr, col.Snapshot())
	}
	if manifestPath != "" {
		manifest.Suite = suite.Name
		manifest.Fingerprint = suite.Fingerprint()
		manifest.Seed = suite.Seed
		manifest.Scenarios = res.Scenarios
		manifest.Finish(col)
		if err := manifest.WriteFile(manifestPath); err != nil {
			return err
		}
	}
	return writeResult(os.Stdout, res, format)
}

func writeResult(w io.Writer, res *fleet.Result, format string) error {
	switch format {
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	case "csv":
		return writeCSV(w, res)
	case "table":
		writeTable(w, res)
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func writeCSV(f io.Writer, res *fleet.Result) error {
	w := csv.NewWriter(f)
	header := []string{
		"suite", "cell", "policy", "pa", "pc1", "pc2", "pu", "eta",
		"lambda", "service", "n1", "smax", "deltaR", "f", "runs",
		"availability", "availability_ci", "quorum", "quorum_ci",
		"ttr", "ttr_ci", "fr", "fr_ci",
		"avg_nodes", "avg_nodes_ci", "avg_cost", "avg_cost_ci",
	}
	if err := w.Write(header); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fi := func(v int) string { return strconv.Itoa(v) }
	for _, c := range res.Cells {
		a := c.Aggregate
		row := []string{
			res.Suite, fi(c.Cell.Index), string(c.Cell.Policy),
			ff(c.Cell.PA), ff(c.Cell.PC1), ff(c.Cell.PC2), ff(c.Cell.PU), ff(c.Cell.Eta),
			ff(c.Cell.Workload.Lambda), ff(c.Cell.Workload.MeanServiceSteps),
			fi(c.Cell.N1), fi(c.Cell.SMax), fi(c.Cell.DeltaR), fi(c.Cell.F),
			strconv.FormatInt(c.Runs, 10),
			ff(a.Availability.Mean), ff(a.Availability.CI),
			ff(a.QuorumAvailability.Mean), ff(a.QuorumAvailability.CI),
			ff(a.TimeToRecovery.Mean), ff(a.TimeToRecovery.CI),
			ff(a.RecoveryFrequency.Mean), ff(a.RecoveryFrequency.CI),
			ff(a.AvgNodes.Mean), ff(a.AvgNodes.CI),
			ff(a.Cost.Mean), ff(a.Cost.CI),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func writeTable(w io.Writer, res *fleet.Result) {
	fmt.Fprintf(w, "suite %s (seed %d): %d scenarios over %d cells\n\n",
		res.Suite, res.Seed, res.Scenarios, len(res.Cells))
	fmt.Fprintf(w, "%4s  %-18s %5s %5s %3s %4s %5s  %8s %10s %9s %8s %7s %7s\n",
		"cell", "policy", "pA", "pC1", "N1", "ΔR", "runs", "T(A)", "T(A,quor)", "T(R)", "F(R)", "avg N", "cost")
	for _, c := range res.Cells {
		a := c.Aggregate
		fmt.Fprintf(w, "%4d  %-18s %5.3g %5.3g %3d %4d %5d  %8.3f %10.3f %9.2f %8.4f %7.2f %7.3f\n",
			c.Cell.Index, c.Cell.Policy, c.Cell.PA, c.Cell.PC1, c.Cell.N1, c.Cell.DeltaR, c.Runs,
			a.Availability.Mean, a.QuorumAvailability.Mean,
			a.TimeToRecovery.Mean, a.RecoveryFrequency.Mean,
			a.AvgNodes.Mean, a.Cost.Mean)
	}
}
