package recovery

import (
	"math/rand"

	"tolerance/internal/nodemodel"
	"tolerance/internal/opt"
)

// MaxTapeDraws bounds Episodes·(2+2·Horizon), the uniforms one Algorithm 1
// evaluation can consume and so the positions of the tape a training
// records (6 B each, 96 MiB at the bound).
const MaxTapeDraws = 1 << 24

// TapeFits reports whether episodes·(2+2·horizon) is at most MaxTapeDraws,
// computed without overflow. episodes and horizon must be positive.
func TapeFits(episodes, horizon int) bool {
	if horizon > (MaxTapeDraws-2)/2 {
		return false
	}
	return episodes <= MaxTapeDraws/(2+2*horizon)
}

// maxTapeAlerts bounds the alert support a tapeDraw can hold.
const maxTapeAlerts = 1 << 16

// tapeDraw is one uniform u of the common-random-number stream, decoded
// into every role it can play. Which role a position plays for a candidate
// depends on where that candidate's earlier episodes crashed, so each
// position keeps them all: an episode's initial state, a transition from
// either alive state under either action, and an alert from either alive
// state.
type tapeDraw struct {
	// next packs Kernel.SampleTransition(s, a, u) for the alive states s
	// and both actions a, two bits at bit 2(2s+a).
	next uint8
	// compromised is u < pA: the initial state is Compromised.
	compromised bool
	// alert[s] is Kernel.SampleObservation(s, u) for s = Healthy,
	// Compromised.
	alert [2]uint16
}

// successor is the state the draw moves alive state s to under a.
func (d *tapeDraw) successor(s nodemodel.State, a nodemodel.Action) nodemodel.State {
	return nodemodel.State(d.next >> (2 * (2*uint(s) + uint(a))) & 3)
}

// decodeTape records the first n values of rand.New(rand.NewSource(seed))
// decoded through k and pA. p's alert support must hold at most
// maxTapeAlerts values.
func decodeTape(seed int64, n int, pa float64, k *nodemodel.Kernel) []tapeDraw {
	rng := rand.New(rand.NewSource(seed))
	tape := make([]tapeDraw, n)
	for i := range tape {
		u := rng.Float64()
		d := &tape[i]
		d.compromised = u < pa
		for s := nodemodel.Healthy; s <= nodemodel.Compromised; s++ {
			for a := nodemodel.Wait; a <= nodemodel.Recover; a++ {
				d.next |= uint8(k.SampleTransition(s, a, u)) << (2 * (2*uint(s) + uint(a)))
			}
			d.alert[s] = uint16(k.SampleObservation(s, u))
		}
	}
	return tape
}

// laneScorer is Algorithm 1's objective: the average cost J_i (eq. 5) of
// each candidate threshold vector on the decoded tape, which is
// evaluate(rand.New(rand.NewSource(seed)), ...).AvgCost of the candidate's
// ThresholdStrategy, bit for bit. It scores a batch in opt.Lanes lanes:
// each lane replays the tape from its start for one candidate, the lanes
// step in lockstep so the belief recursions of different candidates
// overlap, and a lane that finishes its candidate takes the batch's next
// one. Lanes share nothing mutable, so no lane waits for, guesses at or
// redoes another's work. A scorer is read-only, so concurrent batches may
// share one.
type laneScorer struct {
	tape []tapeDraw
	k    nodemodel.Kernel
	pa   float64
	cfg  SimConfig
}

// newLaneScorer decodes the first cfg.maxDraws() values of the stream
// seeded seed for a validated model and config.
func newLaneScorer(p nodemodel.Params, cfg SimConfig, seed int64) *laneScorer {
	sc := &laneScorer{k: p.Kernel(), pa: p.PA, cfg: cfg}
	sc.tape = decodeTape(seed, cfg.maxDraws(), p.PA, &sc.k)
	return sc
}

// lane is one candidate's replay in progress: runEpisode's variables, with
// the episode's cost summed apart from the finished episodes' total as
// episodeSums sums them.
type lane struct {
	// theta is the candidate's thresholds; nil marks an idle lane.
	theta []float64
	// cand is the candidate's index in the batch.
	cand int
	// pos is the next tape position.
	pos int
	// episodes counts the candidate's finished episodes.
	episodes int
	// t is the step within the episode; wp the BTR window position.
	t, wp  int
	state  nodemodel.State
	belief float64
	// cost is the episode's cost so far, total the finished episodes'.
	cost, total float64
	alive       int
}

// score writes each candidate's average cost to out.
func (sc *laneScorer) score(thetas [][]float64, out []float64) {
	var lanes [opt.Lanes]lane
	busy := min(len(thetas), len(lanes))
	for i := range busy {
		sc.start(&lanes[i], i, thetas[i])
	}
	next := busy
	for busy > 0 {
		for i := range lanes {
			l := &lanes[i]
			if l.theta == nil || !sc.step(l) {
				continue
			}
			out[l.cand] = l.total / float64(l.alive)
			if next < len(thetas) {
				sc.start(l, next, thetas[next])
				next++
			} else {
				l.theta = nil
				busy--
			}
		}
	}
}

// start puts candidate cand on lane l at the tape's start.
func (sc *laneScorer) start(l *lane, cand int, theta []float64) {
	*l = lane{theta: theta, cand: cand}
	sc.beginEpisode(l)
}

// beginEpisode draws the episode's initial state and first alert.
func (sc *laneScorer) beginEpisode(l *lane) {
	l.state = nodemodel.Healthy
	if sc.tape[l.pos].compromised {
		l.state = nodemodel.Compromised
	}
	l.belief = sc.k.Posterior(sc.pa, int(sc.tape[l.pos+1].alert[l.state]))
	l.pos += 2
	l.t, l.wp, l.cost = 0, 0, 0
}

// step takes one step of l's episode, as runEpisode's loop body does, and
// reports whether that finished the candidate.
func (sc *laneScorer) step(l *lane) bool {
	k := &sc.k
	l.t++
	// The window position is t mod DeltaR, counted; with DeltaR = ∞ it is
	// t itself, and only a finite DeltaR ever forces a recovery.
	l.wp++
	if l.wp == sc.cfg.DeltaR {
		l.wp = 0
	}
	action := nodemodel.Wait
	if l.wp == 0 || l.belief >= l.theta[min(l.wp, len(l.theta))-1] {
		action = nodemodel.Recover
	}
	l.cost += k.Cost(l.state, action)
	l.alive++
	next := sc.tape[l.pos].successor(l.state, action)
	l.pos++
	if next == nodemodel.Crashed {
		return sc.endEpisode(l)
	}
	l.state = next
	zc, zh := k.Likelihoods(int(sc.tape[l.pos].alert[next]))
	l.pos++
	l.belief = k.Update(l.belief, action, zc, zh)
	if l.t == sc.cfg.Horizon {
		return sc.endEpisode(l)
	}
	return false
}

// endEpisode adds the episode's cost to the total and begins the next
// episode where this one stopped drawing, or reports the candidate done.
func (sc *laneScorer) endEpisode(l *lane) bool {
	l.total += l.cost
	l.episodes++
	if l.episodes == sc.cfg.Episodes {
		return true
	}
	sc.beginEpisode(l)
	return false
}
