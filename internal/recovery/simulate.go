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
// with the BTR constraint enforced and returns aggregate metrics. It draws
// from rng exactly the uniforms the episodes consume, so a caller that keeps
// using rng afterwards sees the stream continue where the last episode left
// it.
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
	k := p.Kernel()
	m := evaluate(rng, p, &k, s, cfg)
	return &m, nil
}

// maxDraws bounds the uniforms one evaluate call consumes: per episode one
// for the initial state and one for the first alert, then one transition
// and one alert per step. A crash ends its episode early, so only a run
// without crashes reaches the bound.
func (c SimConfig) maxDraws() int {
	return c.Episodes * (2 + 2*c.Horizon)
}

// evaluate is Evaluate on a validated model, its kernel k and a validated
// config. On a fresh rng seeded Seed+1 it is the oracle of Algorithm 1's
// objective, which replays that stream decoded (tape.go).
func evaluate(rng *rand.Rand, p nodemodel.Params, k *nodemodel.Kernel, s Strategy, cfg SimConfig) Metrics {
	var sum episodeSums
	for e := 0; e < cfg.Episodes; e++ {
		runEpisode(rng, p, k, s, cfg, &sum)
	}

	m := Metrics{
		CrashFraction: float64(sum.crashes) / float64(cfg.Episodes),
		Intrusions:    sum.intrusions,
	}
	if sum.aliveSteps > 0 {
		m.AvgCost = sum.cost / float64(sum.aliveSteps)
		m.RecoveryFrequency = float64(sum.recoveries) / float64(sum.aliveSteps)
		comp := totalCostToCompromised(sum.cost, sum.recoveries, p.Eta)
		m.CompromisedFraction = comp / float64(sum.aliveSteps)
	}
	if sum.recoveryTimes > 0 {
		m.TimeToRecovery = sum.recoveryTime / float64(sum.recoveryTimes)
	}
	return m
}

// totalCostToCompromised inverts eq. (5): total cost = eta * compromisedWait
// + recoveries, so compromisedWait = (cost - recoveries) / eta.
func totalCostToCompromised(totalCost float64, recoveries int, eta float64) float64 {
	w := (totalCost - float64(recoveries)) / eta
	return math.Max(0, w)
}

// episodeSums accumulates episodes in order. The order of its float sums is
// part of Evaluate's output: cost is summed within an episode, then across
// episodes; recovery times are summed in the order they occur.
type episodeSums struct {
	cost          float64
	aliveSteps    int
	recoveries    int
	intrusions    int
	crashes       int
	recoveryTime  float64
	recoveryTimes int
}

func (sum *episodeSums) addRecoveryTime(t float64) {
	sum.recoveryTime += t
	sum.recoveryTimes++
}

// runEpisode simulates one episode of Problem 1 and adds it to sum: the node
// starts with initial compromise probability pA (b_{i,1} = p_{A,i}, eq. 6a),
// the controller observes alerts, updates the belief (App. A) and acts; the
// BTR constraint forces recovery when the window position reaches deltaR.
func runEpisode(rng *rand.Rand, p nodemodel.Params, k *nodemodel.Kernel, s Strategy, cfg SimConfig, sum *episodeSums) {
	state := nodemodel.Healthy
	if rng.Float64() < p.PA {
		state = nodemodel.Compromised
		sum.intrusions++
	}
	// Initial belief and observation.
	belief := k.Posterior(p.PA, k.SampleObservation(state, rng.Float64()))

	compromisedAt := -1
	if state == nodemodel.Compromised {
		compromisedAt = 0
	}

	cost := 0.0
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
		cost += k.Cost(state, action)
		sum.aliveSteps++
		if action == nodemodel.Recover {
			sum.recoveries++
			if compromisedAt >= 0 {
				sum.addRecoveryTime(float64(t - compromisedAt))
				compromisedAt = -1
			}
		}

		prevState := state
		state = k.SampleTransition(prevState, action, rng.Float64())
		if state == nodemodel.Crashed {
			sum.crashes++
			if compromisedAt >= 0 {
				sum.addRecoveryTime(NoRecoveryPenalty)
			}
			sum.cost += cost
			return
		}
		if state == nodemodel.Compromised && (prevState == nodemodel.Healthy || action == nodemodel.Recover) {
			sum.intrusions++
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

		zc, zh := k.Likelihoods(k.SampleObservation(state, rng.Float64()))
		belief = k.Update(belief, action, zc, zh)
	}
	if compromisedAt >= 0 {
		sum.addRecoveryTime(NoRecoveryPenalty)
	}
	sum.cost += cost
}
