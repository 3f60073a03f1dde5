package recovery

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tolerance/internal/nodemodel"
)

// ErrOccupancyNotConverged is returned when the Delta_R = infinity closed
// loop does not settle onto a cycle within the evaluator's iteration bound.
var ErrOccupancyNotConverged = errors.New("recovery: closed-loop occupancy did not converge")

const (
	// occupancyGridSize is the evaluator's belief grid: the 301 points of
	// the grid the fleet's DP solves on, so a threshold the DP picked is a
	// grid point here too.
	occupancyGridSize = 300
	// occupancyMaxSteps bounds the Delta_R = infinity iteration.
	occupancyMaxSteps = 1 << 16
	// occupancyMaxCycle is the longest cycle of per-step shares the
	// Delta_R = infinity iteration recognises.
	occupancyMaxCycle = 128
	// occupancyMinRun is the fewest consecutive repeats that confirm a
	// cycle, however short.
	occupancyMinRun = 16
	// occupancyTol is the largest difference between two steps' shares
	// that still counts them as the same point of a cycle.
	occupancyTol = 1e-14
)

// OccupancyShares are the per-alive-step shares of one node's closed loop
// under a recovery strategy: the §III-C quantities, computed rather than
// sampled.
type OccupancyShares struct {
	// CompromisedWaiting is the share of alive steps the node spends
	// compromised while the controller waits — the steps that cost eta in
	// eq. 5.
	CompromisedWaiting float64
	// CrashHazard is the probability per alive step that the node crashes
	// before the next one.
	CrashHazard float64
	// RecoveryFrequency is F(R): the share of alive steps that recover,
	// the forced BTR recoveries included.
	RecoveryFrequency float64
}

// Occupancy evaluates the closed loop of one node under strategy s with
// BTR bound deltaR exactly, with no sampling. Its state is the joint
// distribution of the hidden state (H or C, the node alive) and the belief
// on the DP's grid. One step takes s.Action(grid belief, window position)
// cell by cell — Recover at the forced calendar recoveries — moves the
// hidden state by eq. 2, and splits each posterior onto the grid with the
// DP's own linear placement (stencilEntryFor), so SolveDP and the evaluator
// share one discretisation.
//
// For finite deltaR the forced recovery renews the process exactly every
// deltaR steps — after any recovery the node is compromised with
// probability pA given it is alive, and the belief restarts from pA — so
// the shares are renewal-reward ratios over one window: expected counts
// over expected alive steps. For deltaR = InfiniteDeltaR they are the
// long-run (Cesàro) averages of the per-step shares of the
// conditional-on-alive iterates. The iterates settle onto a cycle — a
// fixed point for a stationary strategy, the period of a belief-blind
// periodic one — and the Cesàro average of a sequence that settles onto a
// cycle is its mean over one cycle. A cycle counts once its shares repeat
// with a period of at most 128 steps for twice that period (and at least
// 16 steps); a dependence on t that first shows later than that is not
// seen. Iterates that do not settle within a fixed bound return
// ErrOccupancyNotConverged.
//
//tolerance:testonly oracle: the one-call table that shared OccupancyTables are held to with ==
func Occupancy(p nodemodel.Params, s Strategy, deltaR int) (OccupancyShares, error) {
	t, err := NewOccupancyTable(p)
	if err != nil {
		return OccupancyShares{}, err
	}
	return t.Shares(s, deltaR)
}

// OccupancyTable is the part of Occupancy's closed loop that depends on the
// node model alone: the DP's belief grid, eq. 2's transition rows and where
// each grid point's posterior lands after each observation. Build one per
// node model and evaluate every strategy and Delta_R of that model on it;
// Shares(s, deltaR) equals Occupancy(p, s, deltaR) bit for bit.
//
// A table is not read-only once built: it keeps trunks, each the closed
// loop from the renewal distribution under one constant threshold, stored
// after every window position. Window Delta_R of a Ladder acts on
// tau_{Delta_R-k} at position k, and tau_r settles on one grid value after
// the first few r, so a model's windows agree on their leading positions.
// Shares of a finite-Delta_R *ThresholdStrategy loads the trunk state after
// its leading run of equal thresholds (never the forced recovery) and
// walks only the rest of the window. The trunk runs the window's own step
// and observe operations in the same order, so every share is the bits of
// a walk of the whole window. Trunks are keyed by the threshold's bits and
// grow on demand under the table's mutex; a position costs at most two
// grid rows, and a trunk's slabs hold at most twice the positions asked
// of it. Delta_R = infinity and strategies of other types walk as before.
// Concurrent Shares calls may share a table.
type OccupancyTable struct {
	pA   float64
	grid []float64
	// crash[x] is the crash probability from alive state x; next[x][a][y]
	// the probability of alive state y after action a from x (eq. 2).
	crash [2]float64
	next  [2][2][2]float64
	// wait holds one placement row per cell, numObs entries each: where
	// the posterior of the cell's Wait prediction lands after each
	// observation; waitSpan the cells each row reaches. reset and
	// resetSpan are the same for the post-recovery prediction pA.
	numObs    int
	wait      []obsPlacement
	waitSpan  []cellSpan
	reset     []obsPlacement
	resetSpan cellSpan

	mu     sync.Mutex        // guards trunks and every trunk's growth
	trunks map[uint64]*trunk // by the Float64bits of the constant threshold
}

// trunk is the closed loop from the renewal distribution under one constant
// threshold: states[j-1] is the distribution after position j (its step and
// its observation) and the running sum of positions 1..j.
type trunk struct {
	states []trunkState
	// free is the unused end of the newest slab the states' masses are
	// carved from.
	free []float64
}

// trunkState is one stored position: the healthy then the compromised mass
// of its cells [lo, hi), and the window's running sum through it.
type trunkState struct {
	mass   []float64
	lo, hi int
	sum    stepMass
}

// NewOccupancyTable builds the closed-loop table of node model p on the
// DP's 301-point belief grid.
func NewOccupancyTable(p nodemodel.Params) (*OccupancyTable, error) {
	return newOccupancyTable(p, occupancyGridSize)
}

// Shares evaluates the closed loop of the table's node model under
// strategy s with BTR bound deltaR: Occupancy on a prebuilt table.
func (t *OccupancyTable) Shares(s Strategy, deltaR int) (OccupancyShares, error) {
	return t.shares(s, deltaR, occupancyMaxSteps)
}

// shares is Shares iterating at most maxSteps steps when deltaR is
// infinite.
func (t *OccupancyTable) shares(s Strategy, deltaR, maxSteps int) (OccupancyShares, error) {
	if s == nil {
		return OccupancyShares{}, fmt.Errorf("%w: nil strategy", ErrBadStrategy)
	}
	if deltaR < 0 {
		return OccupancyShares{}, fmt.Errorf("%w: deltaR = %d", ErrBadStrategy, deltaR)
	}
	l := newClosedLoop(t, s)
	if deltaR == InfiniteDeltaR {
		return l.longRun(maxSteps)
	}
	if ts, ok := s.(*ThresholdStrategy); ok {
		if run := ts.leadingRun(deltaR); run > 0 {
			sum := t.fromTrunk(l, ts.Thresholds[0], run)
			return l.walk(run+1, sum, deltaR), nil
		}
	}
	return l.window(deltaR), nil
}

// leadingRun returns how many of window deltaR's strategy positions
// 1..deltaR-1 act on the position-1 threshold before any other does, bit
// for bit; 0 when there are no strategy positions.
func (s *ThresholdStrategy) leadingRun(deltaR int) int {
	if deltaR < 2 || len(s.Thresholds) == 0 {
		return 0
	}
	first := math.Float64bits(s.Thresholds[0])
	run := 1
	for run < deltaR-1 && math.Float64bits(s.Threshold(run+1)) == first {
		run++
	}
	return run
}

// fromTrunk loads into l the trunk of constant threshold th at position
// run and returns the running sum through it. A trunk shorter than run is
// first extended by walking l, whose strategy acts on th at every position
// up to run, from the trunk's last state (the renewal distribution when it
// has none).
func (t *OccupancyTable) fromTrunk(l *closedLoop, th float64, run int) stepMass {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := math.Float64bits(th)
	tr := t.trunks[key]
	if tr == nil {
		tr = &trunk{}
		t.trunks[key] = tr
	}
	depth := len(tr.states)
	if depth >= run {
		return tr.load(l, run)
	}
	var sum stepMass
	if depth == 0 {
		l.start()
	} else {
		sum = tr.load(l, depth)
	}
	for k := depth + 1; k <= run; k++ {
		sum.add(l.step(k, false))
		l.observe()
		tr.store(l, sum, run)
	}
	return sum
}

// load copies the state after position j into l, whose mass must be zero
// outside the state's cells, and returns its running sum.
func (tr *trunk) load(l *closedLoop, j int) stepMass {
	st := &tr.states[j-1]
	w := st.hi - st.lo
	copy(l.mH[st.lo:st.hi], st.mass[:w])
	copy(l.mC[st.lo:st.hi], st.mass[w:])
	l.lo, l.hi = st.lo, st.hi
	return st.sum
}

// store appends l's distribution as the next position's state, on the way
// to depth positions. A full slab is followed by one with room for the
// positions still to come or for as many as the trunk holds, whichever is
// more, each at the whole grid's width: a trunk grows geometrically, with
// no copy and no allocation per position.
func (tr *trunk) store(l *closedLoop, sum stepMass, depth int) {
	w := l.hi - l.lo
	n := len(tr.states)
	if len(tr.free) < 2*w {
		tr.free = make([]float64, 2*len(l.grid)*max(depth-n, n))
	}
	mass := tr.free[: 2*w : 2*w]
	tr.free = tr.free[2*w:]
	copy(mass, l.mH[l.lo:l.hi])
	copy(mass[w:], l.mC[l.lo:l.hi])
	tr.states = append(tr.states, trunkState{mass: mass, lo: l.lo, hi: l.hi, sum: sum})
}

// obsPlacement carries one observation's share of a grid cell's mass to the
// posterior's two neighbouring grid points, idx and idx+1: the
// placement weights times Z(o|H) for the healthy mass and times Z(o|C) for
// the compromised mass.
type obsPlacement struct {
	hLo, hHi, cLo, cHi float64
	idx                int32
}

// cellSpan is the half-open range of grid cells a placement row reaches.
type cellSpan struct{ lo, hi int }

// stepMass is one step's alive mass and the parts of it that wait
// compromised, crash before the next step and recover.
type stepMass struct {
	alive, compromisedWaiting, crash, recover float64
}

func (m *stepMass) add(o stepMass) {
	m.alive += o.alive
	m.compromisedWaiting += o.compromisedWaiting
	m.crash += o.crash
	m.recover += o.recover
}

func (m stepMass) shares() OccupancyShares {
	if m.alive <= 0 {
		return OccupancyShares{}
	}
	return OccupancyShares{
		CompromisedWaiting: m.compromisedWaiting / m.alive,
		CrashHazard:        m.crash / m.alive,
		RecoveryFrequency:  m.recover / m.alive,
	}
}

// closedLoop is the joint (hidden state, belief cell) distribution of one
// node under one strategy, moved a step at a time on a shared table.
type closedLoop struct {
	*OccupancyTable
	s Strategy
	// mH, mC are the healthy and compromised mass per cell, nonzero only
	// in [lo, hi); preH, preC the mass of the waiting cells after the
	// transition, before the observation; recH, recC the mass of the
	// recovering cells after the transition, which shares one prediction.
	mH, mC, preH, preC, nH, nC []float64
	lo, hi                     int
	recH, recC                 float64
}

func newOccupancyTable(p nodemodel.Params, gridSize int) (*OccupancyTable, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := gridSize + 1
	numObs := p.NumObs()
	t := &OccupancyTable{
		pA: p.PA, numObs: numObs,
		grid:     make([]float64, g),
		wait:     make([]obsPlacement, g*numObs),
		waitSpan: make([]cellSpan, g),
		reset:    make([]obsPlacement, numObs),
		trunks:   make(map[uint64]*trunk),
	}
	for x, st := range []nodemodel.State{nodemodel.Healthy, nodemodel.Compromised} {
		for _, a := range []nodemodel.Action{nodemodel.Wait, nodemodel.Recover} {
			row := p.Transition(st, a)
			t.crash[x] = row[nodemodel.Crashed]
			t.next[x][a] = [2]float64{row[nodemodel.Healthy], row[nodemodel.Compromised]}
		}
	}
	for i := range t.grid {
		// The DP's grid, point for point (SolveDPWith).
		t.grid[i] = float64(i) / float64(gridSize)
		pb := p.PredictBelief(t.grid[i], nodemodel.Wait)
		t.waitSpan[i] = placeRow(p, t.wait[i*numObs:(i+1)*numObs], pb, gridSize)
	}
	t.resetSpan = placeRow(p, t.reset, p.PA, gridSize)
	return t, nil
}

func newClosedLoop(t *OccupancyTable, s Strategy) *closedLoop {
	g := len(t.grid)
	l := &closedLoop{OccupancyTable: t, s: s}
	floats := make([]float64, 6*g)
	for _, v := range []*[]float64{&l.mH, &l.mC, &l.preH, &l.preC, &l.nH, &l.nC} {
		*v, floats = floats[:g:g], floats[g:]
	}
	return l
}

// placeRow fills row with the placements of predictive belief pb's
// posteriors, one per observation, and returns the cells they reach. An
// observation the prediction gives probability zero (possible only at a
// degenerate belief) leaves the belief at the prediction, so no mass is
// lost.
func placeRow(p nodemodel.Params, row []obsPlacement, pb float64, gridSize int) cellSpan {
	span := cellSpan{lo: gridSize + 1}
	for o := range row {
		zh, zc := p.ZHealthy.Prob(o), p.ZCompromised.Prob(o)
		st := stencilEntryFor(pb, zh, zc, gridSize)
		if st.po == 0 {
			st = stencilEntryFor(pb, 1, 1, gridSize)
		}
		row[o] = obsPlacement{
			hLo: zh * st.omfrac, hHi: zh * st.frac,
			cLo: zc * st.omfrac, cHi: zc * st.frac,
			idx: st.idx,
		}
		span.lo = min(span.lo, int(st.idx))
		span.hi = max(span.hi, int(st.idx)+2)
	}
	return span
}

// start loads the distribution every episode and every BTR window begins
// with: compromised with probability pA, belief pA, then one observation.
func (l *closedLoop) start() {
	l.lo, l.hi = 0, 0
	l.recH, l.recC = 1-l.pA, l.pA
	l.observe()
}

// step accounts one alive step at window position k — forced applies the
// BTR recovery — and moves the surviving mass through eq. 2: waiting
// cells into preH, preC, recovering cells into recH, recC.
func (l *closedLoop) step(k int, forced bool) stepMass {
	var m stepMass
	l.recH, l.recC = 0, 0
	next := &l.next
	for i := l.lo; i < l.hi; i++ {
		h, c := l.mH[i], l.mC[i]
		l.preH[i], l.preC[i] = 0, 0
		if h == 0 && c == 0 {
			continue
		}
		m.alive += h + c
		m.crash += h*l.crash[0] + c*l.crash[1]
		if forced || l.s.Action(l.grid[i], k) == nodemodel.Recover {
			m.recover += h + c
			l.recH += h*next[0][nodemodel.Recover][0] + c*next[1][nodemodel.Recover][0]
			l.recC += h*next[0][nodemodel.Recover][1] + c*next[1][nodemodel.Recover][1]
			continue
		}
		m.compromisedWaiting += c
		l.preH[i] = h*next[0][nodemodel.Wait][0] + c*next[1][nodemodel.Wait][0]
		l.preC[i] = h*next[0][nodemodel.Wait][1] + c*next[1][nodemodel.Wait][1]
	}
	return m
}

// observe splits the post-transition mass over the observations onto the
// grid, making it the current distribution, and returns its total.
func (l *closedLoop) observe() float64 {
	nH, nC := l.nH, l.nC
	clear(nH)
	clear(nC)
	span := cellSpan{lo: len(l.grid)}
	scatter := func(row []obsPlacement, h, c float64) {
		for _, pl := range row {
			j := pl.idx
			nH[j] += h * pl.hLo
			nH[j+1] += h * pl.hHi
			nC[j] += c * pl.cLo
			nC[j+1] += c * pl.cHi
		}
	}
	for i := l.lo; i < l.hi; i++ {
		h, c := l.preH[i], l.preC[i]
		if h == 0 && c == 0 {
			continue
		}
		scatter(l.wait[i*l.numObs:(i+1)*l.numObs], h, c)
		span.lo = min(span.lo, l.waitSpan[i].lo)
		span.hi = max(span.hi, l.waitSpan[i].hi)
	}
	if l.recH != 0 || l.recC != 0 {
		scatter(l.reset, l.recH, l.recC)
		span.lo = min(span.lo, l.resetSpan.lo)
		span.hi = max(span.hi, l.resetSpan.hi)
	}
	l.mH, l.nH = nH, l.mH
	l.mC, l.nC = nC, l.mC
	l.lo, l.hi = span.lo, max(span.hi, span.lo)
	total := 0.0
	for i := l.lo; i < l.hi; i++ {
		total += nH[i] + nC[i]
	}
	return total
}

// window sums one BTR window of deltaR steps from the renewal distribution:
// positions 1..deltaR-1 follow the strategy, position deltaR is the forced
// recovery that renews the process. It takes no trunk.
func (l *closedLoop) window(deltaR int) OccupancyShares {
	l.start()
	return l.walk(1, stepMass{}, deltaR)
}

// walk finishes window deltaR from position first, l holding the
// distribution after position first-1 and sum the running sum through it.
func (l *closedLoop) walk(first int, sum stepMass, deltaR int) OccupancyShares {
	for k := first; k <= deltaR; k++ {
		sum.add(l.step(k, k == deltaR))
		if k < deltaR {
			l.observe()
		}
	}
	return sum.shares()
}

// longRun iterates the conditional-on-alive distribution (windowPos = t,
// no forced recoveries) until its per-step shares repeat with some period
// P <= occupancyMaxCycle for max(2P, occupancyMinRun) consecutive steps,
// and returns their mean over the last P steps.
func (l *closedLoop) longRun(maxSteps int) (OccupancyShares, error) {
	const cycle = occupancyMaxCycle
	var (
		hist [cycle]OccupancyShares // step t's shares at t % cycle
		runs [cycle + 1]int         // runs[P]: consecutive steps equal to the one P earlier
	)
	l.start()
	for t := 1; t <= maxSteps; t++ {
		x := l.step(t, false).shares()
		for period := 1; period <= min(cycle, t-1); period++ {
			if !x.near(hist[(t-period)%cycle]) {
				runs[period] = 0
				continue
			}
			if runs[period]++; runs[period] >= max(2*period, occupancyMinRun) {
				mean := x
				for j := 1; j < period; j++ {
					mean = mean.plus(hist[(t-j)%cycle])
				}
				return mean.scaled(1 / float64(period)), nil
			}
		}
		hist[t%cycle] = x
		total := l.observe()
		if total <= 0 {
			// Nothing survives a step: the shares never change again.
			return x, nil
		}
		for i := l.lo; i < l.hi; i++ {
			l.mH[i] /= total
			l.mC[i] /= total
		}
	}
	return OccupancyShares{}, fmt.Errorf("%w: no cycle of at most %d steps within %d steps",
		ErrOccupancyNotConverged, cycle, maxSteps)
}

func (x OccupancyShares) near(y OccupancyShares) bool {
	return math.Abs(x.CompromisedWaiting-y.CompromisedWaiting) <= occupancyTol &&
		math.Abs(x.CrashHazard-y.CrashHazard) <= occupancyTol &&
		math.Abs(x.RecoveryFrequency-y.RecoveryFrequency) <= occupancyTol
}

func (x OccupancyShares) plus(y OccupancyShares) OccupancyShares {
	return OccupancyShares{
		CompromisedWaiting: x.CompromisedWaiting + y.CompromisedWaiting,
		CrashHazard:        x.CrashHazard + y.CrashHazard,
		RecoveryFrequency:  x.RecoveryFrequency + y.RecoveryFrequency,
	}
}

func (x OccupancyShares) scaled(f float64) OccupancyShares {
	return OccupancyShares{
		CompromisedWaiting: x.CompromisedWaiting * f,
		CrashHazard:        x.CrashHazard * f,
		RecoveryFrequency:  x.RecoveryFrequency * f,
	}
}
