// Webservice: the §VII proof of concept through the public API — a
// replicated key-value web service coordinated by MinBFT replicas over
// loopback TCP, an attacker running Table 6 campaigns against them, node
// controllers that restart compromised replicas, and the system controller
// evicting and adding nodes through consensus, while a client writes to the
// service every control step and measures whether it commits.
//
// The run is a one-cell suite on the "cluster" backend, so this is the same
// control loop the fleet's cluster cells and cluster-smoke execute.
//
//	go run ./examples/webservice
package main

import (
	"context"
	"fmt"
	"log"

	"tolerance"
)

// suite is the demo regime: a lively but survivable attacker (pA = 0.08)
// against five replicas that may grow to seven, one recovery at a time, no
// BTR bound (deltaR 0 = infinity), 30 control steps, the TOLERANCE policy.
const suite = `{
	"version": 2,
	"name": "webservice",
	"seed": 7,
	"seedsPerCell": 1,
	"steps": 30,
	"smax": 7,
	"k": 1,
	"attackRates": [0.08],
	"n1s": [5],
	"deltaRs": [0],
	"policies": ["TOLERANCE"],
	"backends": ["cluster"]
}`

// Telemetry the cluster backend exports (internal/clusterbackend).
const (
	metricRestarts  = "cluster.replica_restarts"
	metricMaxView   = "cluster.max_view"
	metricEvictions = "cluster.evictions"
	metricAdditions = "cluster.additions"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tel := tolerance.NewTelemetry()
	var rec tolerance.ScenarioRecord
	_, err := tolerance.RunSuite(context.Background(), tolerance.SuiteFromJSON([]byte(suite)),
		tolerance.WithTelemetry(tel),
		tolerance.WithRecordHandler(func(r tolerance.ScenarioRecord) error {
			rec = r
			return nil
		}),
	)
	if err != nil {
		return err
	}
	m := rec.Metrics
	snap := tel.Snapshot()
	fmt.Printf("replicated web service, %s policy, 30 control steps on live replicas\n", rec.Strategy)
	fmt.Printf("  measured availability T(A): %.3f (steps whose client write committed)\n", m.Availability)
	fmt.Printf("  mean service latency:       %.1f ms\n", m.ServiceLatencyMS)
	fmt.Printf("  intrusions / recoveries:    %d / %d\n", m.Intrusions, m.Recoveries)
	fmt.Printf("  replica restarts:           %d\n", snap.Counters[metricRestarts])
	fmt.Printf("  highest MinBFT view:        %.0f\n", snap.Gauges[metricMaxView])
	fmt.Printf("  evictions / additions:      %d / %d\n", snap.Counters[metricEvictions], snap.Counters[metricAdditions])
	if m.Availability < 0.5 {
		return fmt.Errorf("service unavailable: measured T(A) = %.3f < 0.5", m.Availability)
	}
	fmt.Println("the service committed the client's write in at least half the steps despite the intrusions")
	return nil
}
