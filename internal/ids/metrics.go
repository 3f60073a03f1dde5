package ids

import (
	"math/rand"
	"sort"

	"tolerance/internal/dist"
)

// Metric identifies one of the infrastructure signals the testbed collects
// every time step (Appendix H, Fig 18).
type Metric string

// The metrics of Fig 18.
const (
	MetricAlerts       Metric = "alerts weighted by priority"
	MetricFailedLogins Metric = "new failed login attempts"
	MetricProcesses    Metric = "new processes"
	MetricTCP          Metric = "new tcp connections"
	MetricBlocksWrite  Metric = "blocks written to disk"
	MetricBlocksRead   Metric = "blocks read from disk"
)

// MetricProfile is a signal's distribution with and without an intrusion.
type MetricProfile struct {
	Metric  Metric
	Healthy *dist.Categorical
	Intrude *dist.Categorical
}

// DefaultMetricProfiles returns signal models calibrated so the KL ranking
// matches Fig 18: IDS alerts carry by far the most information (paper:
// 0.49), blocks written and failed logins a little (0.12, 0.07), while
// process counts, TCP connections and blocks read are nearly uninformative
// (0.01, 0.01, 0.0).
func DefaultMetricProfiles() []MetricProfile {
	bb := func(alphaH, betaH, alphaC, betaC float64) (*dist.Categorical, *dist.Categorical) {
		h := dist.MustBetaBinomial(AlertSupport-1, alphaH, betaH).Categorical()
		c := dist.MustBetaBinomial(AlertSupport-1, alphaC, betaC).Categorical()
		return h, c
	}
	alertsH, alertsC := bb(0.7, 5, 2.2, 1.2)
	loginsH, loginsC := bb(1, 8, 1.45, 8)
	procH, procC := bb(2, 4, 2.12, 4)
	tcpH, tcpC := bb(3, 5, 3.14, 5)
	writeH, writeC := bb(1.5, 6, 2.2, 6)
	readH, readC := bb(2, 6, 2, 6)
	return []MetricProfile{
		{MetricAlerts, alertsH, alertsC},
		{MetricFailedLogins, loginsH, loginsC},
		{MetricProcesses, procH, procC},
		{MetricTCP, tcpH, tcpC},
		{MetricBlocksWrite, writeH, writeC},
		{MetricBlocksRead, readH, readC},
	}
}

// MetricRank pairs a metric with its measured divergence.
type MetricRank struct {
	Metric     Metric
	Divergence float64
}

// RankMetrics estimates each metric's empirical distributions from m
// samples per state and returns them sorted by descending KL divergence —
// the App. H procedure for selecting the detection signal.
func RankMetrics(rng *rand.Rand, profiles []MetricProfile, m int) ([]MetricRank, error) {
	out := make([]MetricRank, 0, len(profiles))
	for _, p := range profiles {
		h, err := dist.FitEmpirical(rng, p.Healthy, AlertSupport, m)
		if err != nil {
			return nil, err
		}
		c, err := dist.FitEmpirical(rng, p.Intrude, AlertSupport, m)
		if err != nil {
			return nil, err
		}
		out = append(out, MetricRank{
			Metric:     p.Metric,
			Divergence: dist.KLSmoothed(h.Distribution(), c.Distribution(), 1e-9),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Divergence > out[j].Divergence })
	return out, nil
}
