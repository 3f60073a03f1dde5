package recovery

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"tolerance/internal/nodemodel"
)

// NoRecoveryPenalty is the time-to-recovery reported when an intrusion is
// never recovered, following the paper's Table 7 convention (10^3).
const NoRecoveryPenalty = 1000

// ErrBadSimConfig is returned for invalid simulation configurations.
var ErrBadSimConfig = errors.New("recovery: bad simulation config")

// SimConfig configures the Monte-Carlo evaluation of a recovery strategy.
type SimConfig struct {
	// Episodes is the number of independent episodes (the paper evaluates
	// with M = 50 samples, Table 8).
	Episodes int
	// Horizon is the number of time steps per episode.
	Horizon int
	// DeltaR is the BTR bound enforced by the simulator; InfiniteDeltaR
	// disables forced recoveries.
	DeltaR int
}

func (c SimConfig) validate() error {
	if c.Episodes < 1 {
		return fmt.Errorf("%w: episodes = %d", ErrBadSimConfig, c.Episodes)
	}
	if c.Horizon < 1 {
		return fmt.Errorf("%w: horizon = %d", ErrBadSimConfig, c.Horizon)
	}
	if c.DeltaR < 0 {
		return fmt.Errorf("%w: deltaR = %d", ErrBadSimConfig, c.DeltaR)
	}
	return nil
}

// Metrics aggregates the evaluation quantities of §III-C over episodes.
type Metrics struct {
	// AvgCost is J_i (eq. 5): total cost divided by alive steps.
	AvgCost float64
	// TimeToRecovery is T(R): mean steps from compromise until the next
	// recovery starts, with NoRecoveryPenalty for unrecovered intrusions.
	TimeToRecovery float64
	// RecoveryFrequency is F(R): fraction of steps where recovery occurs.
	RecoveryFrequency float64
	// CompromisedFraction is the fraction of alive steps spent compromised.
	CompromisedFraction float64
	// CrashFraction is the fraction of episodes ending in a crash.
	CrashFraction float64
	// Intrusions is the total number of compromise events observed.
	Intrusions int
}

// Evaluate runs Monte-Carlo episodes of the node model under the strategy
// with the BTR constraint enforced and returns aggregate metrics.
func Evaluate(rng *rand.Rand, p nodemodel.Params, s Strategy, cfg SimConfig) (*Metrics, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("%w: nil strategy", ErrBadSimConfig)
	}

	var (
		totalCost      float64
		aliveSteps     int
		recoveries     int
		crashes        int
		recoveryTimes  []float64
		intrusionCount int
	)

	for e := 0; e < cfg.Episodes; e++ {
		ep := runEpisode(rng, p, s, cfg)
		totalCost += ep.cost
		aliveSteps += ep.aliveSteps
		recoveries += ep.recoveries
		intrusionCount += ep.intrusions
		recoveryTimes = append(recoveryTimes, ep.recoveryTimes...)
		if ep.crashed {
			crashes++
		}
	}

	m := &Metrics{
		CrashFraction: float64(crashes) / float64(cfg.Episodes),
		Intrusions:    intrusionCount,
	}
	if aliveSteps > 0 {
		m.AvgCost = totalCost / float64(aliveSteps)
		m.RecoveryFrequency = float64(recoveries) / float64(aliveSteps)
	}
	if len(recoveryTimes) > 0 {
		sum := 0.0
		for _, t := range recoveryTimes {
			sum += t
		}
		m.TimeToRecovery = sum / float64(len(recoveryTimes))
	}
	comp := 0.0
	if aliveSteps > 0 {
		comp = totalCostToCompromised(totalCost, recoveries, p.Eta)
		m.CompromisedFraction = comp / float64(aliveSteps)
	}
	return m, nil
}

// totalCostToCompromised inverts eq. (5): total cost = eta * compromisedWait
// + recoveries, so compromisedWait = (cost - recoveries) / eta.
func totalCostToCompromised(totalCost float64, recoveries int, eta float64) float64 {
	w := (totalCost - float64(recoveries)) / eta
	return math.Max(0, w)
}

type episodeResult struct {
	cost          float64
	aliveSteps    int
	recoveries    int
	intrusions    int
	crashed       bool
	recoveryTimes []float64
}

// runEpisode simulates one episode of Problem 1: the node starts with
// initial compromise probability pA (b_{i,1} = p_{A,i}, eq. 6a), the
// controller observes alerts, updates the belief (App. A) and acts; the BTR
// constraint forces recovery when the window position reaches deltaR.
func runEpisode(rng *rand.Rand, p nodemodel.Params, s Strategy, cfg SimConfig) episodeResult {
	var res episodeResult

	state := nodemodel.Healthy
	if rng.Float64() < p.PA {
		state = nodemodel.Compromised
		res.intrusions++
	}
	// Initial belief and observation.
	belief := p.PA
	obs := p.SampleObservation(rng, state)
	belief = p.Posterior(belief, obs)

	compromisedAt := -1
	if state == nodemodel.Compromised {
		compromisedAt = 0
	}

	for t := 1; t <= cfg.Horizon; t++ {
		// The BTR constraint (6b) forces recovery at the fixed calendar
		// times k*DeltaR; between them the strategy is indexed by the
		// window position t mod DeltaR (Cor. 1, Alg. 1 line 6).
		windowPos := t
		forced := false
		if cfg.DeltaR != InfiniteDeltaR {
			windowPos = t % cfg.DeltaR
			forced = windowPos == 0
		}
		var action nodemodel.Action
		if forced {
			action = nodemodel.Recover
		} else {
			action = s.Action(belief, windowPos)
		}
		res.cost += p.Cost(state, action)
		res.aliveSteps++
		if action == nodemodel.Recover {
			res.recoveries++
			if compromisedAt >= 0 {
				res.recoveryTimes = append(res.recoveryTimes, float64(t-compromisedAt))
				compromisedAt = -1
			}
		}

		prevState := state
		state = p.SampleTransition(rng, prevState, action)
		if state == nodemodel.Crashed {
			res.crashed = true
			if compromisedAt >= 0 {
				res.recoveryTimes = append(res.recoveryTimes, NoRecoveryPenalty)
			}
			return res
		}
		if state == nodemodel.Compromised && (prevState == nodemodel.Healthy || action == nodemodel.Recover) {
			res.intrusions++
			if compromisedAt < 0 {
				compromisedAt = t
			}
		}
		if state == nodemodel.Healthy && prevState == nodemodel.Compromised &&
			action == nodemodel.Wait && compromisedAt >= 0 {
			// A software update silently cleaned the node (eq. 2g). This is
			// not a controller recovery, so it does not enter T(R); the
			// intrusion simply ends (Table 7 reports T(R) = 10^3 exactly for
			// NO-RECOVERY even though pU > 0).
			compromisedAt = -1
		}

		obs = p.SampleObservation(rng, state)
		belief = p.UpdateBelief(belief, action, obs)
	}
	if compromisedAt >= 0 {
		res.recoveryTimes = append(res.recoveryTimes, NoRecoveryPenalty)
	}
	return res
}
