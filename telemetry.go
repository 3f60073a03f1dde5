package tolerance

import (
	"net/http"

	"tolerance/internal/telemetry"
)

// Telemetry collects live metrics from v2 facade calls: attach one with
// WithTelemetry and RunSuite/StreamSuite report fleet throughput (fleet.*),
// strategy-cache behaviour (cache.*) and training progress (training.*),
// while Solve's learned methods report optimizer/PPO progress. One
// Telemetry may serve many sequential or concurrent calls; counters
// accumulate across them.
//
// Telemetry is observation only. Metrics are atomic adds outside the rng
// and fold paths, and nothing is ever printed to stdout — results are
// byte-identical and suite hot paths allocation-free, attached or not.
type Telemetry struct {
	c *telemetry.Collector
}

// NewTelemetry returns an empty collector.
func NewTelemetry() *Telemetry {
	return &Telemetry{c: telemetry.New()}
}

// WithTelemetry attaches a metrics collector to a v2 call (RunSuite,
// StreamSuite, Solve). Nil is a no-op.
func WithTelemetry(t *Telemetry) Option {
	return func(o *options) { o.telemetry = t }
}

// TelemetrySnapshot is a point-in-time fold of every metric: monotonic
// counters, last-value gauges, fixed-bucket histograms and completed
// wall-clock phases. It marshals to stable JSON (map keys sort).
type TelemetrySnapshot struct {
	// UptimeSeconds is the collector's age at snapshot time.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Counters holds monotonic counts (fleet.scenarios_folded,
	// cache.policy_builds, training.evals, ...).
	Counters map[string]int64 `json:"counters"`
	// Gauges holds last-value metrics (training.best_objective, ...).
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms holds folded distributions (fleet.scenario_duration_ns, ...).
	Histograms map[string]TelemetryHistogram `json:"histograms,omitempty"`
	// Phases lists completed wall-clock phases in completion order.
	Phases []TelemetryPhase `json:"phases,omitempty"`
}

// TelemetryHistogram is one folded fixed-bucket distribution.
type TelemetryHistogram struct {
	Count    int64             `json:"count"`
	Sum      int64             `json:"sum"`
	Buckets  []TelemetryBucket `json:"buckets,omitempty"`
	Overflow int64             `json:"overflow,omitempty"`
}

// TelemetryBucket counts the observations at most Le (per bucket, not
// cumulative).
type TelemetryBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// TelemetryPhase is one completed wall-clock phase of a run.
type TelemetryPhase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Snapshot folds the collector's current state. It is safe to call at any
// moment, including while calls are in flight.
func (t *Telemetry) Snapshot() TelemetrySnapshot {
	s := t.c.Snapshot()
	out := TelemetrySnapshot{
		UptimeSeconds: s.UptimeSeconds,
		Counters:      s.Counters,
		Gauges:        s.Gauges,
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]TelemetryHistogram, len(s.Histograms))
		for name, h := range s.Histograms {
			hist := TelemetryHistogram{Count: h.Count, Sum: h.Sum, Overflow: h.Overflow}
			if len(h.Buckets) > 0 {
				hist.Buckets = make([]TelemetryBucket, len(h.Buckets))
				for i, b := range h.Buckets {
					hist.Buckets[i] = TelemetryBucket{Le: b.Le, Count: b.Count}
				}
			}
			out.Histograms[name] = hist
		}
	}
	if len(s.Phases) > 0 {
		out.Phases = make([]TelemetryPhase, len(s.Phases))
		for i, p := range s.Phases {
			out.Phases[i] = TelemetryPhase{Name: p.Name, Seconds: p.Seconds}
		}
	}
	return out
}

// Handler returns the HTTP introspection mux: /metrics (JSON snapshot),
// /debug/vars (expvar) and /debug/pprof/*.
func (t *Telemetry) Handler() http.Handler {
	return telemetry.Handler(t.c)
}

// Serve starts the introspection endpoint on addr (":0" picks a free port)
// and returns the bound address plus a close function.
func (t *Telemetry) Serve(addr string) (string, func() error, error) {
	srv, err := telemetry.Serve(addr, t.c)
	if err != nil {
		return "", nil, err
	}
	return srv.Addr(), srv.Close, nil
}

// collector exposes the internal collector to sibling facade files.
func (t *Telemetry) collector() *telemetry.Collector {
	if t == nil {
		return nil
	}
	return t.c
}
