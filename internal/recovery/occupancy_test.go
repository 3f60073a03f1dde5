package recovery

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tolerance/internal/nodemodel"
)

// bandStrategy recovers inside a belief band and waits on both sides of
// it: a rule no threshold expresses.
type bandStrategy struct{ lo, hi float64 }

func (s bandStrategy) Action(b float64, _ int) nodemodel.Action {
	if b >= s.lo && b < s.hi {
		return nodemodel.Recover
	}
	return nodemodel.Wait
}

// occupancy is Occupancy on a grid of gridSize intervals, iterating at most
// maxSteps steps when deltaR is infinite.
func occupancy(p nodemodel.Params, s Strategy, deltaR, gridSize, maxSteps int) (OccupancyShares, error) {
	t, err := newOccupancyTable(p, gridSize)
	if err != nil {
		return OccupancyShares{}, err
	}
	return t.shares(s, deltaR, maxSteps)
}

// occupancyParams is the node model at attack rate pA and crash profile
// (pC1, pC2), Table 8 otherwise.
func occupancyParams(pA, pC1, pC2 float64) nodemodel.Params {
	p := nodemodel.DefaultParams()
	p.PA, p.PC1, p.PC2 = pA, pC1, pC2
	return p
}

// The two crash profiles of the wide benchmark suite: Table 8 and
// examples/scada.
var occupancyCrashProfiles = [][2]float64{{1e-5, 1e-3}, {5e-3, 2e-2}}

// Per-step outcome bits of a rollout step.
const (
	stepCompromisedWaiting = 1 << iota
	stepRecover
	stepCrash
)

// rolloutShares is the Monte-Carlo oracle for Occupancy: episodes of
// runEpisode's closed loop (the same draws per step: transition, then
// observation, then belief update), of which steps burn+1..burn+count are
// counted while the node is alive. For finite deltaR the shares are ratios
// of counts pooled over every counted step — the renewal-reward ratio, when
// count is a whole number of windows from burn = 0. For InfiniteDeltaR
// they are the per-step ratios among the episodes alive at each counted
// step, averaged over the steps — the Cesàro mean of the
// conditional-on-alive process. Each share comes with the delta-method
// standard error of its estimator over episodes.
func rolloutShares(seed int64, p nodemodel.Params, s Strategy, deltaR, episodes, burn, count int) (mean, se OccupancyShares) {
	rng := rand.New(rand.NewSource(seed))
	block := func(t int) int { return t - burn - 1 } // one ratio per counted step
	blocks := count
	if deltaR != InfiniteDeltaR {
		block = func(int) int { return 0 } // one ratio over every counted step
		blocks = 1
	}
	steps := make([][]uint8, episodes) // per episode, the outcome of each counted alive step
	for e := range steps {
		state := nodemodel.Healthy
		if rng.Float64() < p.PA {
			state = nodemodel.Compromised
		}
		belief := p.Posterior(p.PA, p.SampleObservation(rng, state))
		for t := 1; t <= burn+count; t++ {
			windowPos, forced := t, false
			if deltaR != InfiniteDeltaR {
				windowPos = t % deltaR
				forced = windowPos == 0
			}
			action := nodemodel.Recover
			if !forced {
				action = s.Action(belief, windowPos)
			}
			var out uint8
			if action == nodemodel.Recover {
				out |= stepRecover
			} else if state == nodemodel.Compromised {
				out |= stepCompromisedWaiting
			}
			state = p.SampleTransition(rng, state, action)
			if state == nodemodel.Crashed {
				out |= stepCrash
			}
			if t > burn {
				steps[e] = append(steps[e], out)
			}
			if state == nodemodel.Crashed {
				break
			}
			belief = p.UpdateBelief(belief, action, p.SampleObservation(rng, state))
		}
	}

	bits := []uint8{stepCompromisedWaiting, stepCrash, stepRecover}
	alive := make([]float64, blocks)
	hits := make([][3]float64, blocks)
	for _, tr := range steps {
		for i, out := range tr {
			b := block(burn + 1 + i)
			alive[b]++
			for k, bit := range bits {
				if out&bit != 0 {
					hits[b][k]++
				}
			}
		}
	}
	var est, vari [3]float64
	for b := range alive {
		for k := range bits {
			est[k] += hits[b][k] / alive[b] / float64(blocks)
		}
	}
	for _, tr := range steps {
		var phi [3]float64 // the episode's influence on each estimate
		for i, out := range tr {
			b := block(burn + 1 + i)
			for k, bit := range bits {
				x := 0.0
				if out&bit != 0 {
					x = 1
				}
				phi[k] += (x - hits[b][k]/alive[b]) / alive[b] / float64(blocks)
			}
		}
		for k := range phi {
			vari[k] += phi[k] * phi[k]
		}
	}
	n := float64(episodes)
	for k := range vari {
		vari[k] = math.Sqrt(vari[k] * n / (n - 1))
	}
	return OccupancyShares{est[0], est[1], est[2]}, OccupancyShares{vari[0], vari[1], vari[2]}
}

// TestOccupancyMatchesRollouts holds the evaluator to the rollout oracle
// over attack rates, the wide suite's two crash profiles, finite and
// infinite ΔR, and strategies of every shape — DP thresholds, never,
// belief-blind periodic, and a belief band no threshold expresses. Each
// share must lie within 3σ of a 2 000-episode rollout, σ combining the
// rollout's standard error with the evaluator's own discretisation error:
// twice the share's move when the grid doubles, the first-order estimate
// (zero for belief-blind strategies, which the grid cannot bias; about
// 0.002 at most otherwise, a grid point's worth of mass acting on the
// wrong side of a threshold that sits on a grid point). Finite-ΔR
// rollouts count whole windows from the start (the process renews every
// window); ΔR = ∞ rollouts count 200 steps after a 100-step burn-in, the
// long run the evaluator computes. Over the sweep the z-scores are
// standard normal: on the nine seed bases tried the rms was 0.91–1.00 and
// six bases had one share (never two) past 3σ, as chance predicts for 368
// shares; the base below has none, and the rms bound catches a bias
// shared by many shares that the per-share bound would miss.
func TestOccupancyMatchesRollouts(t *testing.T) {
	const episodes = 2000
	type job struct {
		name      string
		p         nodemodel.Params
		s         Strategy
		deltaR    int
		seed      int64
		occ, fine OccupancyShares // grid occupancyGridSize and twice that
		mean, se  OccupancyShares
	}
	var jobs []*job
	seed := int64(5001)
	for _, pA := range []float64{0.05, 0.1, 0.2, 0.3} {
		for _, cp := range occupancyCrashProfiles {
			p := occupancyParams(pA, cp[0], cp[1])
			for _, deltaR := range []int{5, 15, 50, InfiniteDeltaR} {
				dp, err := SolveDP(p, DPConfig{DeltaR: deltaR, GridSize: occupancyGridSize})
				if err != nil {
					t.Fatalf("pA %v crash %v ΔR %d: %v", pA, cp, deltaR, err)
				}
				for _, st := range []struct {
					name string
					s    Strategy
				}{
					{"dp", dp.Strategy(deltaR)},
					{"never", NeverRecover{}},
					{"periodic", PeriodicStrategy{Period: 4}},
					{"band", bandStrategy{lo: 0.3, hi: 0.6}},
				} {
					seed++
					jobs = append(jobs, &job{
						name: fmt.Sprintf("pA=%v/crash=%v/ΔR=%d/%s", pA, cp, deltaR, st.name),
						p:    p, s: st.s, deltaR: deltaR, seed: seed,
					})
				}
			}
		}
	}
	var wg sync.WaitGroup
	work := make(chan *job)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				burn, count := 100, 200
				if j.deltaR != InfiniteDeltaR {
					burn, count = 0, j.deltaR*((200+j.deltaR-1)/j.deltaR)
				}
				j.mean, j.se = rolloutShares(j.seed, j.p, j.s, j.deltaR, episodes, burn, count)
			}
		}()
	}
	for _, j := range jobs {
		var err error
		if j.occ, err = Occupancy(j.p, j.s, j.deltaR); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		if j.fine, err = occupancy(j.p, j.s, j.deltaR, 2*occupancyGridSize, occupancyMaxSteps); err != nil {
			t.Fatalf("%s: %v", j.name, err)
		}
		work <- j
	}
	close(work)
	wg.Wait()
	worst, sumZ2, nZ := 0.0, 0.0, 0
	for _, j := range jobs {
		for _, c := range []struct {
			name                 string
			got, fine, want, sem float64
		}{
			{"compromised-waiting", j.occ.CompromisedWaiting, j.fine.CompromisedWaiting, j.mean.CompromisedWaiting, j.se.CompromisedWaiting},
			{"crash hazard", j.occ.CrashHazard, j.fine.CrashHazard, j.mean.CrashHazard, j.se.CrashHazard},
			{"recovery frequency", j.occ.RecoveryFrequency, j.fine.RecoveryFrequency, j.mean.RecoveryFrequency, j.se.RecoveryFrequency},
		} {
			d := math.Abs(c.got - c.want)
			sig := math.Hypot(c.sem, 2*(c.got-c.fine))
			if sig == 0 {
				if d > 1e-12 {
					t.Errorf("%s %s: evaluator %v, rollout %v exactly", j.name, c.name, c.got, c.want)
				}
				continue
			}
			z := d / sig
			worst = math.Max(worst, z)
			sumZ2 += z * z
			nZ++
			if z > 3 {
				t.Errorf("%s %s: evaluator %.5f (%.5f on the doubled grid), rollout %.5f ± %.5f (%.1fσ)",
					j.name, c.name, c.got, c.fine, c.want, c.sem, z)
			}
		}
	}
	rms := math.Sqrt(sumZ2 / float64(nZ))
	t.Logf("%d shares against rollouts: largest deviation %.2fσ, rms %.2fσ", nZ, worst, rms)
	if rms > 1.25 {
		t.Errorf("rms deviation %.2fσ over %d shares: the evaluator is biased", rms, nZ)
	}
}

// hiddenChain is the closed form of Occupancy for a strategy that ignores
// the belief: the node is then the two-state hidden chain (H, C given
// alive) under actions fixed by the window position alone. For finite
// deltaR the shares are the window's expected counts over its expected
// alive steps; for InfiniteDeltaR, with the strategy periodic in t with
// the given period, the conditional-on-alive law at the cycle's first step
// is the left Perron vector of the cycle's one-step matrices multiplied in
// order, and the shares are their mean over one cycle from there.
func hiddenChain(p nodemodel.Params, s Strategy, deltaR, period int) OccupancyShares {
	pc := [2]float64{p.PC1, p.PC2}
	// m[a][x][y]: probability of alive state y after action a from x.
	var m [2][2][2]float64
	for x, st := range []nodemodel.State{nodemodel.Healthy, nodemodel.Compromised} {
		for a := range m {
			row := p.Transition(st, nodemodel.Action(a))
			m[a][x] = [2]float64{row[nodemodel.Healthy], row[nodemodel.Compromised]}
		}
	}
	action := func(k int) nodemodel.Action {
		if deltaR != InfiniteDeltaR && k%deltaR == 0 {
			return nodemodel.Recover
		}
		return s.Action(math.NaN(), k) // a belief-blind strategy never reads it
	}
	var alive, cw, crash, rec float64
	account := func(v [2]float64, a nodemodel.Action) [2]float64 {
		alive += v[0] + v[1]
		crash += v[0]*pc[0] + v[1]*pc[1]
		if a == nodemodel.Recover {
			rec += v[0] + v[1]
		} else {
			cw += v[1]
		}
		return [2]float64{v[0]*m[a][0][0] + v[1]*m[a][1][0], v[0]*m[a][0][1] + v[1]*m[a][1][1]}
	}
	if deltaR != InfiniteDeltaR {
		v := [2]float64{1 - p.PA, p.PA}
		for k := 1; k <= deltaR; k++ {
			v = account(v, action(k))
		}
		return OccupancyShares{cw / alive, crash / alive, rec / alive}
	}
	// The cycle matrix c = M(a_1) M(a_2) ... M(a_period), row-vector convention.
	c := [2][2]float64{{1, 0}, {0, 1}}
	for k := 1; k <= period; k++ {
		a := action(k)
		var n [2][2]float64
		for i := range n {
			for j := range n[i] {
				n[i][j] = c[i][0]*m[a][0][j] + c[i][1]*m[a][1][j]
			}
		}
		c = n
	}
	// Left Perron vector of c: pi c = lambda pi.
	lambda := (c[0][0] + c[1][1] + math.Sqrt((c[0][0]-c[1][1])*(c[0][0]-c[1][1])+4*c[0][1]*c[1][0])) / 2
	v := [2]float64{c[1][0], lambda - c[0][0]}
	if c[1][0] == 0 {
		v = [2]float64{lambda - c[1][1], c[0][1]}
	}
	var sum OccupancyShares
	for k := 1; k <= period; k++ {
		norm := v[0] + v[1]
		v = [2]float64{v[0] / norm, v[1] / norm}
		alive, cw, crash, rec = 0, 0, 0, 0
		v = account(v, action(k))
		sum = sum.plus(OccupancyShares{cw, crash, rec})
	}
	return sum.scaled(1 / float64(period))
}

// TestOccupancyBeliefBlindClosedForm: for strategies that ignore the
// belief, the grid only relabels mass the hidden chain already carries, so
// the evaluator equals the two-state closed form to rounding.
func TestOccupancyBeliefBlindClosedForm(t *testing.T) {
	for _, pA := range []float64{0.05, 0.2} {
		for _, cp := range occupancyCrashProfiles {
			p := occupancyParams(pA, cp[0], cp[1])
			for _, st := range []struct {
				name   string
				s      Strategy
				period int
			}{
				{"never", NeverRecover{}, 1},
				{"always", AlwaysRecover{}, 1},
				{"periodic-4", PeriodicStrategy{Period: 4}, 4},
				{"periodic-7", PeriodicStrategy{Period: 7}, 7},
			} {
				for _, deltaR := range []int{1, 5, 15, 50, InfiniteDeltaR} {
					got, err := Occupancy(p, st.s, deltaR)
					if err != nil {
						t.Fatalf("%s ΔR=%d: %v", st.name, deltaR, err)
					}
					want := hiddenChain(p, st.s, deltaR, st.period)
					for _, d := range []float64{
						got.CompromisedWaiting - want.CompromisedWaiting,
						got.CrashHazard - want.CrashHazard,
						got.RecoveryFrequency - want.RecoveryFrequency,
					} {
						if math.Abs(d) > 1e-12 {
							t.Errorf("pA=%v crash=%v %s ΔR=%d: evaluator %+v, closed form %+v",
								pA, cp, st.name, deltaR, got, want)
							break
						}
					}
				}
			}
		}
	}
}

// TestOccupancyGridConvergence: doubling the belief grid moves q — the
// quantity Problem 2 consumes — by less than 1e-3 under the DP's own
// thresholds, finite ΔR and infinite.
func TestOccupancyGridConvergence(t *testing.T) {
	q := func(o OccupancyShares) float64 { return (1 - o.CompromisedWaiting) * (1 - o.CrashHazard) }
	worst := 0.0
	for _, pA := range []float64{0.05, 0.1, 0.2, 0.3} {
		for _, cp := range occupancyCrashProfiles {
			p := occupancyParams(pA, cp[0], cp[1])
			for _, deltaR := range []int{5, 15, 50, InfiniteDeltaR} {
				dp, err := SolveDP(p, DPConfig{DeltaR: deltaR, GridSize: occupancyGridSize})
				if err != nil {
					t.Fatal(err)
				}
				s := dp.Strategy(deltaR)
				coarse, err := occupancy(p, s, deltaR, occupancyGridSize, occupancyMaxSteps)
				if err != nil {
					t.Fatal(err)
				}
				fine, err := occupancy(p, s, deltaR, 2*occupancyGridSize, occupancyMaxSteps)
				if err != nil {
					t.Fatal(err)
				}
				d := math.Abs(q(fine) - q(coarse))
				worst = math.Max(worst, d)
				if d >= 1e-3 {
					t.Errorf("pA=%v crash=%v ΔR=%d: q %v on %d grid points, %v on %d",
						pA, cp, deltaR, q(coarse), occupancyGridSize+1, q(fine), 2*occupancyGridSize+1)
				}
			}
		}
	}
	t.Logf("largest move of q under grid doubling: %.2g", worst)
}

// TestOccupancyMatchesDPCost: the evaluator and SolveDP share one
// discretisation, so with crashes off (the DP ignores them) the cost the
// evaluator implies at the DP's own thresholds — eta · compromised-waiting
// share + recovery frequency, per step — is the DP's average cost, up to
// the DP charging eta · (grid belief) where the evaluator charges
// eta · P(compromised): about 2e-5 at most here, against about 1e-3 for
// either one's error against rollouts.
func TestOccupancyMatchesDPCost(t *testing.T) {
	for _, pA := range []float64{0.05, 0.1, 0.2} {
		p := occupancyParams(pA, 0, 0)
		for _, deltaR := range []int{5, 15, 50} {
			dp, err := SolveDP(p, DPConfig{DeltaR: deltaR, GridSize: occupancyGridSize})
			if err != nil {
				t.Fatal(err)
			}
			o, err := Occupancy(p, dp.Strategy(deltaR), deltaR)
			if err != nil {
				t.Fatal(err)
			}
			if j := p.Eta*o.CompromisedWaiting + o.RecoveryFrequency; math.Abs(j-dp.AvgCost) > 1e-4 {
				t.Errorf("pA=%v ΔR=%d: evaluator J %v, DP average cost %v", pA, deltaR, j, dp.AvgCost)
			}
		}
	}
}

// coinStrategy recovers at the steps t whose hash has its low bit set: a
// belief-blind schedule with no period, so its ΔR = ∞ closed loop never
// settles onto a cycle.
type coinStrategy struct{}

func (coinStrategy) Action(_ float64, t int) nodemodel.Action {
	z := uint64(t) * 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	if (z^z>>27)&1 == 1 {
		return nodemodel.Recover
	}
	return nodemodel.Wait
}

// TestOccupancyNotConverged: iterates that do not settle within the bound
// are a typed error, never a hang — for a loop that settles given more
// steps and for one that never does.
func TestOccupancyNotConverged(t *testing.T) {
	p := nodemodel.DefaultParams()
	for _, c := range []struct {
		s        Strategy
		maxSteps int
	}{{NeverRecover{}, 10}, {coinStrategy{}, 3000}} {
		if _, err := occupancy(p, c.s, InfiniteDeltaR, occupancyGridSize, c.maxSteps); !errors.Is(err, ErrOccupancyNotConverged) {
			t.Errorf("%T within %d steps: err = %v, want ErrOccupancyNotConverged", c.s, c.maxSteps, err)
		}
	}
	if _, err := occupancy(p, NeverRecover{}, InfiniteDeltaR, occupancyGridSize, occupancyMaxSteps); err != nil {
		t.Errorf("NeverRecover within the shipped bound: %v", err)
	}
}

// sameShares reports the first difference between two evaluations, held to
// == on every share and on the error text. It only calls t.Errorf, so
// goroutines may use it.
func sameShares(t *testing.T, what string, got OccupancyShares, gotErr error, want OccupancyShares, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("%s: err %v, Occupancy's %v", what, gotErr, wantErr)
		return
	}
	if got != want {
		t.Errorf("%s: shares %+v, Occupancy's %+v", what, got, want)
	}
}

// TestOccupancyTableMatchesOccupancy is the shared table's property test:
// over random valid models, every Delta_R in 1..60 and infinity, under the
// DP's threshold strategies, a fixed threshold and belief-blind rules
// (never, periodic, a band), Shares on one table — evaluated in random
// orders, and from concurrent goroutines sharing the table — is == to
// Occupancy, which builds a fresh table per call.
func TestOccupancyTableMatchesOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	models := 4
	if testing.Short() {
		models = 2
	}
	type job struct {
		what   string
		s      Strategy
		deltaR int
		want   OccupancyShares
		err    error
	}
	for m := 0; m < models; m++ {
		p := randomLadderModel(rng)
		ladder, err := NewLadder(p, occupancyGridSize)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []job
		add := func(what string, s Strategy, deltaR int) {
			jobs = append(jobs, job{what: fmt.Sprintf("model %d %s deltaR %d", m, what, deltaR), s: s, deltaR: deltaR})
		}
		for dr := 1; dr <= 60; dr++ {
			dp, err := ladder.Window(dr)
			if err != nil {
				t.Fatal(err)
			}
			add("dp", dp.Strategy(dr), dr)
			add("never", NeverRecover{}, dr)
			add("periodic", PeriodicStrategy{Period: 1 + rng.Intn(8)}, dr)
		}
		lo := rng.Float64()
		for _, s := range []Strategy{
			&ThresholdStrategy{Thresholds: []float64{rng.Float64()}, DeltaR: InfiniteDeltaR},
			NeverRecover{}, PeriodicStrategy{Period: 1 + rng.Intn(8)}, bandStrategy{lo, lo + 0.2},
		} {
			add(fmt.Sprintf("%T", s), s, InfiniteDeltaR)
		}
		for i := range jobs {
			jobs[i].want, jobs[i].err = Occupancy(p, jobs[i].s, jobs[i].deltaR)
		}

		table, err := NewOccupancyTable(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rng.Perm(len(jobs)) {
			j := jobs[i]
			got, err := table.Shares(j.s, j.deltaR)
			sameShares(t, j.what, got, err, j.want, j.err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			order := rng.Perm(len(jobs))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range order {
					j := jobs[i]
					got, err := table.Shares(j.s, j.deltaR)
					sameShares(t, "concurrent "+j.what, got, err, j.want, j.err)
				}
			}()
		}
		wg.Wait()
	}
}

// trunkCase is one window the trunk property test evaluates, with the
// trunk-free walk's shares.
type trunkCase struct {
	what   string
	s      *ThresholdStrategy
	deltaR int
	want   OccupancyShares
}

// TestOccupancyTrunkMatchesWindow is the trunk's property test. Over random
// models, every Delta_R in 1..60 and threshold strategies of every shape —
// the ladder's windows, random thresholds, a random leading run before
// random thresholds, one threshold everywhere but one interior position,
// and a single threshold used at finite Delta_R (Threshold clamps, so it
// is constant) — Shares is == to the window walk, which takes no trunk.
// The cases run ascending, descending and shuffled on one fresh table each,
// and from 4 goroutines sharing a fresh table. The interior and single
// cases draw from two thresholds a model, so strategies of different
// shapes meet on one trunk.
func TestOccupancyTrunkMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	models := 2
	if testing.Short() {
		models = 1
	}
	for m := 0; m < models; m++ {
		p := randomLadderModel(rng)
		ladder, err := NewLadder(p, occupancyGridSize)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewOccupancyTable(p)
		if err != nil {
			t.Fatal(err)
		}
		var cases []trunkCase
		add := func(what string, th []float64, dr int) {
			s := &ThresholdStrategy{Thresholds: th, DeltaR: dr}
			cases = append(cases, trunkCase{
				what: fmt.Sprintf("model %d %s ΔR %d", m, what, dr), s: s, deltaR: dr,
				want: newClosedLoop(oracle, s).window(dr),
			})
		}
		taus := []float64{rng.Float64(), rng.Float64()}
		for dr := 1; dr <= 60; dr++ {
			dp, err := ladder.Window(dr)
			if err != nil {
				t.Fatal(err)
			}
			add("ladder", dp.Thresholds, dr)
			dim := ThresholdDim(dr)
			random, lead, notch := make([]float64, dim), make([]float64, dim), make([]float64, dim)
			run, tau := rng.Intn(dim+1), taus[rng.Intn(2)]
			for k := range dim {
				random[k], lead[k], notch[k] = rng.Float64(), taus[0], tau
				if k >= run {
					lead[k] = rng.Float64()
				}
			}
			if dim > 2 {
				notch[1+rng.Intn(dim-2)] = rng.Float64()
			}
			add("random", random, dr)
			add("lead", lead, dr)
			add("notch", notch, dr)
			add("single", []float64{taus[rng.Intn(2)]}, dr)
		}

		perm := rng.Perm(len(cases))
		for _, order := range []struct {
			name string
			at   func(i int) int
		}{
			{"ascending", func(i int) int { return i }},
			{"descending", func(i int) int { return len(cases) - 1 - i }},
			{"shuffled", func(i int) int { return perm[i] }},
		} {
			table, err := NewOccupancyTable(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cases {
				c := cases[order.at(i)]
				got, err := table.Shares(c.s, c.deltaR)
				sameShares(t, order.name+" "+c.what, got, err, c.want, nil)
			}
		}
		table, err := NewOccupancyTable(p)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			order := rng.Perm(len(cases))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, i := range order {
					c := cases[i]
					got, err := table.Shares(c.s, c.deltaR)
					sameShares(t, "concurrent "+c.what, got, err, c.want, nil)
				}
			}()
		}
		wg.Wait()
	}
}

// TestOccupancyTrunkAllocations: a window leaves its leading run in a
// trunk, and a window the trunk already covers costs what a walk of the
// whole window costs, the loop and its slab, and no allocation for the
// trunk.
func TestOccupancyTrunkAllocations(t *testing.T) {
	p := nodemodel.DefaultParams()
	table, err := NewOccupancyTable(p)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := NewLadder(p, occupancyGridSize)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := ladder.Window(50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.Shares(deep.Strategy(50), 50); err != nil {
		t.Fatal(err)
	}
	run := deep.Strategy(50).leadingRun(50)
	if tr := table.trunks[math.Float64bits(deep.Thresholds[0])]; tr == nil || len(tr.states) != run {
		t.Fatalf("window 50 (leading run %d) left no trunk that deep: %+v", run, table.trunks)
	}
	sol, err := ladder.Window(40)
	if err != nil {
		t.Fatal(err)
	}
	s := sol.Strategy(40)
	if run := s.leadingRun(40); run < 2 {
		t.Fatalf("window 40's leading run is %d positions; the test needs a trunk", run)
	}
	walk := testing.AllocsPerRun(20, func() { newClosedLoop(table, s).window(40) })
	trunk := testing.AllocsPerRun(20, func() {
		if _, err := table.Shares(s, 40); err != nil {
			t.Fatal(err)
		}
	})
	if trunk > walk || walk > 2 {
		t.Errorf("Shares of a covered window allocates %v times, the whole-window walk %v; want at most the walk's, and it at most 2", trunk, walk)
	}
}

// TestOccupancyTableRejects keeps Occupancy's argument checks on the split
// form: the model when the table is built, the strategy and Delta_R when
// shares are evaluated.
func TestOccupancyTableRejects(t *testing.T) {
	if _, err := NewOccupancyTable(nodemodel.Params{}); err == nil {
		t.Error("NewOccupancyTable accepted a model with no observation distributions")
	}
	table, err := NewOccupancyTable(nodemodel.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.Shares(nil, 5); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("nil strategy: err = %v, want ErrBadStrategy", err)
	}
	if _, err := table.Shares(NeverRecover{}, -2); !errors.Is(err, ErrBadStrategy) {
		t.Errorf("deltaR = -2: err = %v, want ErrBadStrategy", err)
	}
}
