// Shards example: the scale-out evaluation workflow end to end, in one
// process — the same steps `cmd/tolerance-fleet` runs across machines:
//
//  1. export a suite definition to JSON (-dump-suite),
//  2. run it as two disjoint shards, each writing a durable record file
//     (-shard i/n -checkpoint),
//  3. kill one shard mid-run — by cancelling its context, exactly what
//     Ctrl-C does — and resume it from its checkpoint (-resume),
//  4. merge the shard files into the full-suite result (-merge),
//
// and then verify the headline property: the merged result is
// byte-identical to running the whole suite on one machine.
//
//	go run ./examples/shards
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"tolerance/internal/fleet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "tolerance-shards")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// 1. A small grid, exported to the JSON schema users author by hand.
	suite := fleet.Suite{
		Name:         "shards-demo",
		Description:  "two attack rates x two system sizes, TOLERANCE vs PERIODIC",
		Seed:         11,
		SeedsPerCell: 2,
		Steps:        150,
		FitSamples:   400,
		AttackRates:  []float64{0.05, 0.1},
		N1s:          []int{3, 6},
		Policies:     []fleet.PolicyKind{fleet.PolicyTolerance, fleet.PolicyPeriodic},
	}
	data, err := fleet.DumpSuite(suite)
	if err != nil {
		return err
	}
	suitePath := filepath.Join(dir, "suite.json")
	if err := os.WriteFile(suitePath, data, 0o644); err != nil {
		return err
	}
	loaded, err := fleet.LoadSuiteFile(suitePath)
	if err != nil {
		return err
	}
	fmt.Printf("suite %q: %d scenarios over %d cells (fingerprint %s)\n",
		loaded.Name, loaded.NumScenarios(), loaded.NumCells(), loaded.Fingerprint())

	// 2. Run the grid as two shards, as two machines would, each recording
	// completed scenarios to its own durable file.
	paths := make([]string, 2)
	for i := range paths {
		shard := fleet.Shard{Index: i, Count: 2}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.jsonl", i))
		if err := runShard(loaded, shard, paths[i], 0); err != nil {
			return err
		}
		fmt.Printf("shard %s: %d scenarios recorded to %s\n",
			shard, len(shard.Indices(loaded.NumScenarios())), filepath.Base(paths[i]))
	}

	// 3. Simulate a crash on shard 0: rerun it but cancel its context after
	// four scenarios (the record file keeps the completed prefix), then
	// resume.
	crashed := filepath.Join(dir, "crashed.jsonl")
	if err := runShard(loaded, fleet.Shard{Index: 0, Count: 2}, crashed, 4); err != nil {
		return err
	}
	ck, err := fleet.ReadCheckpoint(crashed)
	if err != nil {
		return err
	}
	fmt.Printf("crash simulation: killed shard 0/2 with %d of %d scenarios done\n",
		ck.Records.Len(), len(fleet.Shard{Index: 0, Count: 2}.Indices(loaded.NumScenarios())))
	w, err := fleet.AppendCheckpoint(crashed, ck)
	if err != nil {
		return err
	}
	resumed, err := fleet.Run(context.Background(), loaded, fleet.Config{
		Shard:     fleet.Shard{Index: 0, Count: 2},
		Completed: ck.Records,
		OnRecord:  w.Append,
	})
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("resumed: shard complete with %d scenarios folded\n", resumed.Scenarios)

	// 4. Merge the shard record files — with the resumed file standing in
	// for shard 0 — into the full-suite result.
	mergedSuite, records, err := fleet.ReadShardSet([]string{crashed, paths[1]})
	if err != nil {
		return err
	}
	merged, err := fleet.MergeRecords(mergedSuite, records)
	if err != nil {
		return err
	}

	// Verify: one unsharded run of the same suite, byte for byte.
	whole, err := fleet.Run(context.Background(), loaded, fleet.Config{})
	if err != nil {
		return err
	}
	mergedJSON, _ := json.Marshal(merged)
	wholeJSON, _ := json.Marshal(whole)
	if string(mergedJSON) != string(wholeJSON) {
		return fmt.Errorf("merged result differs from single-machine run")
	}
	fmt.Println("merged 2 shards (one crash-resumed): byte-identical to the single-machine run")

	fmt.Printf("\n%-12s %6s %10s %8s\n", "policy", "N1", "T(A)", "cost")
	for _, c := range merged.Cells {
		fmt.Printf("%-12s %6d %10.3f %8.3f\n",
			c.Cell.Policy, c.Cell.N1, c.Aggregate.Availability.Mean, c.Aggregate.Cost.Mean)
	}
	return nil
}

// runShard executes one shard with a checkpoint file. When killAfter > 0
// the shard's context is cancelled once that many scenarios have been
// recorded — the same signal Ctrl-C sends a real machine — and the worker
// pool drains promptly, leaving the checkpoint with the completed
// index-ordered prefix.
func runShard(suite fleet.Suite, shard fleet.Shard, path string, killAfter int) error {
	w, err := fleet.CreateCheckpoint(path, suite, shard)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	_, err = fleet.Run(ctx, suite, fleet.Config{
		Shard: shard,
		OnRecord: func(rec fleet.RunRecord) error {
			if err := w.Append(rec); err != nil {
				return err
			}
			n++
			if killAfter > 0 && n >= killAfter {
				cancel() // simulated crash
			}
			return nil
		},
	})
	if err != nil && !(killAfter > 0 && errors.Is(err, context.Canceled)) {
		w.Close()
		return err
	}
	return w.Close()
}
