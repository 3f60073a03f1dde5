package recovery

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"tolerance/internal/nodemodel"
)

// ErrDPNotConverged is returned when the stationary value iteration for
// Delta_R = infinity fails to converge.
var ErrDPNotConverged = errors.New("recovery: dp value iteration did not converge")

// DPConfig configures the exact dynamic-programming solver.
type DPConfig struct {
	// DeltaR is the BTR bound; InfiniteDeltaR solves the stationary problem.
	DeltaR int
	// GridSize is the number of belief-grid intervals (default 500).
	GridSize int
	// MaxValueIterations bounds the stationary value iteration (default 5000).
	MaxValueIterations int
}

func (c DPConfig) withDefaults() DPConfig {
	if c.GridSize <= 0 {
		c.GridSize = 500
	}
	if c.MaxValueIterations <= 0 {
		c.MaxValueIterations = 5000
	}
	return c
}

// Normalized returns the configuration with all defaults applied, so two
// configurations that select the same solve (for example GridSize 0 and the
// default 500) compare equal — strategy caches key on the normalized form.
func (c DPConfig) Normalized() DPConfig { return c.withDefaults() }

// DPSolution is the exact solution of Problem 1.
//
// For finite Delta_R the BTR constraint (eq. 6b) forces recovery at the
// fixed calendar times k*Delta_R, so the process renews every Delta_R steps
// (eq. 16) and the optimal strategy follows from backward induction over one
// window. Every window starts from the same forced-recovery terminal, so a
// finite solution is a window read from the model's Ladder: SolveDP climbs
// a one-window ladder on its arena, and a Ladder kept across calls serves
// every Delta_R up to its depth + 1 without repeating a stage. For
// Delta_R = infinity the process renews at (threshold-triggered)
// recoveries instead, and the average cost rho solves g(rho) = 0 where g
// is the optimal expected (cost - rho * time) per recovery cycle; rho is
// found by safeguarded regula falsi. Crash absorption (probability <= pC2 per
// step) is ignored by the DP and handled by the simulator; the induced bias
// is O(pC2).
//
// Both inductions use the threshold structure (Theorem 1): before each
// Bellman sweep a cheap lower bound on the wait value marks the top rows of
// the grid where recovering is certain to be optimal, and only the rows
// below them take the observation expectation (recoverFrom). The bound
// carries a margin wider than the sweep's rounding, so a skipped row is one
// the full sweep would also have set to the recover value, and every
// threshold and average cost is the full sweep's bit for bit.
type DPSolution struct {
	// AvgCost is the optimal long-run average cost J* (eq. 5).
	AvgCost float64
	// Thresholds holds the optimal recovery thresholds alpha*_k per window
	// position k = 1..len(Thresholds) (Fig 15, Cor. 1); for
	// DeltaR = infinity it has a single stationary entry.
	Thresholds []float64
}

// Threshold returns alpha*_k clamped to the available window positions.
func (s *DPSolution) Threshold(windowPos int) float64 {
	k := windowPos
	if k < 1 {
		k = 1
	}
	if k > len(s.Thresholds) {
		k = len(s.Thresholds)
	}
	return s.Thresholds[k-1]
}

// Strategy converts the DP solution into a threshold strategy for deltaR.
func (s *DPSolution) Strategy(deltaR int) *ThresholdStrategy {
	dim := ThresholdDim(deltaR)
	th := make([]float64, dim)
	for k := 1; k <= dim; k++ {
		th[k-1] = s.Threshold(k)
	}
	return &ThresholdStrategy{Thresholds: th, DeltaR: deltaR}
}

// Arena is reusable scratch storage for dpSolver: the belief grid, stencil
// tables, value buffers and prediction cache of a solve, kept as raw
// slabs that re-dimension (grow once, then slice) instead of reallocating
// per solve. Solutions computed through a shared arena are bit-identical to
// fresh-solver solutions for any (params, config) sequence — prepare fully
// re-derives every slab entry it reads (guarded by
// TestDPArenaReuseBitIdentical). Solver *output* (DPSolution's thresholds)
// is never arena-backed: solutions escape into long-lived caches, so they
// get their own allocations. An Arena is for one solve at a time; callers
// that solve in parallel hold one arena per worker (the fleet strategy
// cache pools them per-P).
type Arena struct {
	floats  []float64
	ints    []int32
	resetSt []stencilEntry
}

// NewArena returns an empty arena; the first solve sizes it.
func NewArena() *Arena { return &Arena{} }

// grabFloats returns a zero-filled float slab of the requested size,
// reusing the arena's backing array when it is large enough.
func (a *Arena) grabFloats(n int) []float64 {
	if cap(a.floats) < n {
		a.floats = make([]float64, n)
		return a.floats
	}
	s := a.floats[:n]
	clear(s)
	return s
}

// grabInts is grabFloats for the int32 stencil indices.
func (a *Arena) grabInts(n int) []int32 {
	if cap(a.ints) < n {
		a.ints = make([]int32, n)
		return a.ints
	}
	s := a.ints[:n]
	clear(s)
	return s
}

// SolveDP computes the optimal average cost and thresholds of Problem 1.
func SolveDP(p nodemodel.Params, cfg DPConfig) (*DPSolution, error) {
	return SolveDPWith(p, cfg, nil)
}

// arenas holds the scratch of solves that bring no arena of their own
// (SolveDP, Ladder.Window), so a cold solve reuses the slabs of an earlier
// one instead of allocating its own.
var arenas = sync.Pool{New: func() any { return NewArena() }}

// SolveDPWith is SolveDP drawing solver scratch from a reusable arena (nil
// draws one from a package pool, which is exactly SolveDP). The returned
// solution is bit-identical either way and never aliases the arena.
func SolveDPWith(p nodemodel.Params, cfg DPConfig, arena *Arena) (*DPSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.DeltaR < 0 {
		return nil, fmt.Errorf("%w: deltaR = %d", ErrBadStrategy, cfg.DeltaR)
	}
	if arena == nil {
		arena = arenas.Get().(*Arena)
		defer arenas.Put(arena)
	}
	solver := &dpSolver{p: p, cfg: cfg, ar: arena}
	solver.prepare()

	if cfg.DeltaR != InfiniteDeltaR {
		l := solver.windowLadder()
		l.climb(solver, cfg.DeltaR-1)
		return l.window(cfg.DeltaR), nil
	}
	return solver.solveStationary()
}

type dpSolver struct {
	p    nodemodel.Params
	cfg  DPConfig
	grid []float64
	ar   *Arena // scratch source; prepare re-derives every slab it reads

	// Interpolation stencils: for each grid belief b, waiting leads to the
	// predictive pb and, per observation o with probability po(o) > 0, to a
	// posterior that linearly interpolates two neighbouring grid values,
	// contributing po*(1-frac) to index idx and po*frac to idx+1. The
	// (index, weight) pairs are precomputed into flat parallel arrays
	// (structure-of-arrays), laid out column-major — observation-major,
	// grid-minor — so the Bellman sweep accumulates each observation's
	// contribution across the whole grid without a serial dependency chain
	// and without per-entry struct copies. Zero-probability entries carry
	// zero weights (exact-zero contributions) so every column stays dense.
	// Folding po into the weights changes only last-ulp rounding of the
	// value arrays; the extracted thresholds and strategies are unchanged
	// (they are grid points selected by comparisons far from the rounding
	// scale — SolveDP's pinned regression tests and the fleet determinism
	// suite hold bit-for-bit).
	stIdx        []int32 // len numObs*gridSize
	stWlo, stWhi []float64
	// Per grid row: the lowest value index any of its observations reads
	// with a nonzero weight, and the sum of its weights (about 1). They
	// bound a row's expectation from below without taking it (recoverFrom).
	rowLo   []int32
	rowMass []float64
	// slack is recoverFrom's rounding margin per unit of scale.
	slack float64
	// Stencil from the post-recovery prior pA (used both for the recover
	// action's continuation and the window start), pruned of
	// zero-probability observations.
	resetSt []stencilEntry

	// Value buffers (a one-window ladder keeps U_r in buf0, the stationary
	// value iteration ping-pongs the two) and the shared expectation
	// accumulator.
	// warm records that buf0 holds the converged stopping value of the
	// previous rho, so the root finder's next probe starts its fixed-point
	// iteration there instead of from zero — successive probes close in on
	// one root, so their fixed points are close and the iteration converges
	// in a fraction of the cold-start sweeps.
	buf0, buf1, accBuf []float64
	warm               bool
	// tauBuf and eBuf back the one-window ladder of a finite solve (empty,
	// with capacity DeltaR; nil for the stationary problem and for ladder
	// extensions, whose ladders own their storage).
	tauBuf, eBuf []float64
}

// stencilEntry is one observation's contribution to a Bellman expectation:
// probability po times the linear interpolation of the value function at
// the posterior, between grid indices idx and idx+1 with weights omfrac
// and frac (a clamped posterior at the grid top is encoded as idx = n-1,
// frac = 1).
type stencilEntry struct {
	idx          int32
	po           float64
	frac, omfrac float64
}

// stencilEntryFor builds the stencil entry for predictive belief pb and
// observation o with likelihoods zh, zc on the grid of n intervals (po is
// zero when the observation cannot occur): the one placement of a
// posterior onto the belief grid, shared by the DP and the closed-loop
// evaluator (occupancy.go).
func stencilEntryFor(pb, zh, zc float64, n int) stencilEntry {
	po := pb*zc + (1-pb)*zh
	if po == 0 {
		return stencilEntry{}
	}
	post := pb * zc / po
	x := post * float64(n)
	i := int(x)
	var frac, omfrac float64
	if i >= n {
		i, frac, omfrac = n-1, 1, 0
	} else {
		frac = x - float64(i)
		omfrac = 1 - frac
	}
	return stencilEntry{idx: int32(i), po: po, frac: frac, omfrac: omfrac}
}

// prepare lays out the belief grid and caches the belief-transition
// stencils (and, for a finite DeltaR, the window's ladder storage). All
// float storage comes from one arena slab carved into the solver's views;
// the slabs are zero-filled on reuse (grabFloats/grabInts), because the
// stencil fill below skips zero-probability entries — an arena inherited
// from a different (params, config) solve must not leak stale weights
// through that skip path.
func (d *dpSolver) prepare() {
	numObs := d.p.NumObs()
	zH, zC := d.p.ZHealthy, d.p.ZCompromised
	g := d.cfg.GridSize + 1
	window := d.cfg.DeltaR // InfiniteDeltaR = 0: no window storage
	arena := d.ar.grabFloats(2*numObs*g + 6*g + 2*window)
	cut := func(size int) []float64 {
		s := arena[:size:size]
		arena = arena[size:]
		return s
	}
	d.grid = cut(g)
	for i := range d.grid {
		d.grid[i] = float64(i) / float64(d.cfg.GridSize)
	}
	d.stWlo = cut(numObs * g)
	d.stWhi = cut(numObs * g)
	d.buf0 = cut(g)
	d.buf1 = cut(g)
	d.accBuf = cut(g)
	d.rowMass = cut(g)
	preds := cut(g)
	d.tauBuf, d.eBuf = cut(window)[:0], cut(window)[:0]
	ints := d.ar.grabInts((numObs + 1) * g)
	d.stIdx, d.rowLo = ints[:numObs*g:numObs*g], ints[numObs*g:]
	for i, b := range d.grid {
		preds[i] = d.p.PredictBelief(b, nodemodel.Wait)
		d.rowLo[i] = int32(g)
	}
	for o := 0; o < numObs; o++ {
		base := o * g
		zh, zc := zH.Prob(o), zC.Prob(o)
		for i, pb := range preds {
			st := stencilEntryFor(pb, zh, zc, len(d.grid)-1)
			if st.po == 0 {
				continue // zero weights: exact-zero contribution
			}
			wlo, whi := st.po*st.omfrac, st.po*st.frac
			d.stIdx[base+i] = st.idx
			d.stWlo[base+i] = wlo
			d.stWhi[base+i] = whi
			d.rowMass[i] += wlo + whi
			lo := st.idx
			if wlo == 0 {
				lo++ // a clamped posterior reads only idx+1
			}
			d.rowLo[i] = min(d.rowLo[i], lo)
		}
	}
	d.slack = 1e-13 * float64(numObs+4)
	d.resetSt = d.ar.resetSt[:0]
	for o := 0; o < numObs; o++ {
		if st := stencilEntryFor(d.p.PA, zH.Prob(o), zC.Prob(o), len(d.grid)-1); st.po != 0 {
			d.resetSt = append(d.resetSt, st)
		}
	}
	d.ar.resetSt = d.resetSt
	d.warm = false
}

// expectWaitRows computes E_o[ W(b'(b,o)) ] under Wait for the grid
// beliefs of rows [0, rows) at once into acc — the dense-slice-product form
// of the Bellman expectation. Each observation column is swept across the
// rows, so consecutive iterations touch independent accumulator cells
// (instruction-level parallelism instead of one serial add chain per grid
// point); the first column assigns instead of accumulating, which fuses
// the zeroing pass. A row's float operations do not depend on rows, so a
// row's expectation is the same bits whatever the row count.
func (d *dpSolver) expectWaitRows(w, acc []float64, rows int) {
	g := len(d.grid)
	acc = acc[:rows]
	numObs := len(d.stWlo) / g
	for o := 0; o < numObs; o++ {
		base := o * g
		wlo := d.stWlo[base : base+rows : base+rows]
		whi := d.stWhi[base : base+rows : base+rows]
		idx := d.stIdx[base : base+rows : base+rows]
		if len(whi) < len(wlo) || len(idx) < len(wlo) || len(acc) < len(wlo) {
			panic("recovery: stencil shape")
		}
		if o == 0 {
			for i, lo := range wlo {
				j := idx[i]
				acc[i] = w[j]*lo + w[j+1]*whi[i]
			}
			continue
		}
		for i, lo := range wlo {
			j := idx[i]
			acc[i] += w[j]*lo + w[j+1]*whi[i]
		}
	}
}

// recoverFrom returns the lowest grid row K such that on every row of
// [K, g) the Bellman sweep's wait value is provably at least recoverVal, so
// the sweep would store recoverVal there without taking the expectation.
// The wait value of row i is eta*b_i + off + E_o w(b'), and the
// expectation sums nonnegative weights (rowMass[i] in all) times values of
// w at indices >= rowLo[i]. With m_i the minimum of w over [rowLo[i], g),
//
//	L_i = eta*b_i + off + m_i*rowMass[i] <= wait value of row i
//
// in exact arithmetic. Rows are tested from the top down and the scan stops
// at the first with L_i - rel*L_i - abs < recoverVal; rel and abs must cover
// the rounding of both sides (stage and stoppingValue derive theirs). The
// suffix minima m_i are built in accBuf, which the sweep overwrites next; a
// NaN in w poisons every minimum below it, and the test is written so that
// a NaN L stops the scan. The top row is tested as soon as its minimum is
// known, so a sweep that skips nothing pays little more than that row.
func (d *dpSolver) recoverFrom(w []float64, off, recoverVal, rel, abs float64) int {
	g := len(d.grid)
	w, sm := w[:g], d.accBuf[:g]
	rowLo, mass, grid := d.rowLo[:g], d.rowMass[:g], d.grid[:g]
	eta := d.p.Eta
	recovers := func(i int) bool {
		L := eta*grid[i] + off + sm[rowLo[i]]*mass[i]
		return L-rel*L-abs >= recoverVal
	}
	top := int(rowLo[g-1])
	m := math.Inf(1)
	for j := g - 1; j >= 0; j-- {
		if v := w[j]; v < m || v != v {
			m = v
		}
		sm[j] = m
		if j == top && !recovers(g-1) {
			return g
		}
	}
	for k := g - 1; k > 0; k-- {
		if !recovers(k - 1) {
			return k
		}
	}
	return 0
}

// expectReset computes E_o[ W(b'(o)) ] from the post-recovery prior pA.
func (d *dpSolver) expectReset(w []float64) float64 {
	e := 0.0
	for _, st := range d.resetSt {
		e += st.po * (w[st.idx]*st.omfrac + w[st.idx+1]*st.frac)
	}
	return e
}

// rhoTolerance is the bracket width at which the stationary root finder
// stops: the returned average cost is within it of the root.
const rhoTolerance = 1e-11

// solveStationary solves the unconstrained problem over the
// renewal-at-recovery decomposition: for fixed rho the optimal stopping
// value W satisfies
//
//	W(b) = min( 1 - rho,  eta*b - rho + E_o W(b') ),
//
// and the optimal rho zeroes the cycle-start value E_o W(b_1(o)).
func (d *dpSolver) solveStationary() (*DPSolution, error) {
	rho, w, err := d.stationaryRoot(d.stoppingValue)
	if err != nil {
		return nil, err
	}
	return &DPSolution{AvgCost: rho, Thresholds: []float64{d.stationaryThreshold(rho, w)}}, nil
}

// stationaryThreshold extracts the stationary threshold from the stopping
// value w at rho: the first grid belief at which recovering costs no more
// than waiting (1 when there is none).
func (d *dpSolver) stationaryThreshold(rho float64, w []float64) float64 {
	recoverVal := 1 - rho
	d.expectWaitRows(w, d.accBuf, len(d.grid))
	for i, b := range d.grid {
		if waitVal := d.p.Eta*b - rho + d.accBuf[i]; recoverVal <= waitVal {
			return b
		}
	}
	return 1
}

// stationaryRoot finds the optimal average cost: the root of the
// cycle-start value g(rho) = E_o W_rho(b_1(o)), which decreases in rho
// (every waiting step costs rho more). g(0) >= 0 because no cost is
// negative, and g(1) <= 0 because recovering at every step costs exactly 1,
// so the root lies in [0, 1]. Each probe of g is a stopping-value iteration
// warm-started from the previous probe's fixed point, so the cost of the
// search is the distance its probes travel: a regula falsi (the Illinois
// variant, which halves the g of an end kept twice in a row) closes on the
// root superlinearly where a bisection spends a probe per bit of rho.
//
// Two safeguards bound the worst case by a bisection's: a probe bisects
// when either end has no g (it has not been probed, or its probe did not
// converge) or when the three probes before it together failed to halve
// the bracket (Illinois may need a few same-side probes to shrink a far
// end's g enough to step past the root); and a secant probe stays
// rhoTolerance/2 inside the bracket, so a root next to one end collapses
// the bracket instead of creeping toward it.
//
// The returned rho is a bracket end at most rhoTolerance from the root, and
// w (aliasing the solver's buffer) is its converged stopping value. Each
// probe's stopping value comes from stoppingValue (the solver's own, or an
// oracle in tests).
func (d *dpSolver) stationaryRoot(stoppingValue func(rho float64) ([]float64, error)) (rho float64, w []float64, err error) {
	lo, hi := 0.0, 1.0
	glo, ghi := math.NaN(), math.NaN()
	// The bracket's width three, two and one probes ago, and the end the
	// last probe replaced (-1 lo, +1 hi).
	widths := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	side := 0
	for hi-lo > rhoTolerance {
		width := hi - lo
		if math.IsNaN(glo) || math.IsNaN(ghi) || width > widths[0]/2 {
			rho = lo + width/2
		} else {
			rho = lo + width*glo/(glo-ghi)
			rho = min(max(rho, lo+rhoTolerance/2), hi-rhoTolerance/2)
		}
		widths = [3]float64{widths[1], widths[2], width}
		w, err = stoppingValue(rho)
		g := d.expectReset(w)
		if err != nil {
			// Above the average cost of waiting forever the stopping value
			// has no finite fixed point: every sweep lowers it. An iterate
			// whose cycle-start value is already negative has answered the
			// question (rho is too high) without converging; it gives no g
			// for a secant and is no start point for the next probe.
			if g >= 0 {
				return 0, nil, err
			}
			hi, ghi, side = rho, math.NaN(), 1
			d.warm = false
			continue
		}
		switch {
		case g > 0:
			if side < 0 {
				ghi /= 2
			}
			lo, glo, side = rho, g, -1
		case g < 0:
			if side > 0 {
				glo /= 2
			}
			hi, ghi, side = rho, g, 1
		default:
			return rho, w, nil
		}
	}
	if d.warm {
		return rho, w, nil
	}
	// The last probe set hi without converging; lo is within the tolerance.
	rho = lo
	w, err = stoppingValue(rho)
	return rho, w, err
}

// stoppingValue iterates the optimal-stopping fixed point for a given rho.
// The iteration ping-pongs between the solver's two value buffers instead
// of allocating a fresh array per sweep, and warm-starts from the previous
// rho's fixed point when one is available (the fixed point for each rho is
// unique and the iteration is a contraction, so the start point changes
// only the sweep count, not the limit — within the 1e-10 stopping
// tolerance). The returned slice aliases the solver's converged buffer: it
// is valid until the next stoppingValue call. With ErrDPNotConverged the
// slice is the last iterate, not a fixed point.
//
// Each sweep takes the expectation only below recoverFrom's K and stores
// recoverVal on [K, g), where math.Min would have returned it; diff counts
// those rows as the full sweep does. The values may be negative, so the
// margin is absolute. With u = 2^-53, n observations, W = max|w| and the
// row mass about 1, the sweep's wait value rounds by at most about
// ((n+2)*W + 3*eta + 2*|rho|)*u; L, whose row mass sums 2n weights, by at
// most about ((2n+2)*W + 4*eta + 3*|rho|)*u with the test's subtraction
// of abs: ((3n+4)*W + 7*eta + 5*|rho|)*u in all. abs = slack*(eta + |rho|
// + W), about 900*(n+4)*u*(eta + |rho| + W), is over 300 times that.
func (d *dpSolver) stoppingValue(rho float64) ([]float64, error) {
	p := d.p
	recoverVal := 1 - rho
	w, next := d.buf0, d.buf1
	top := 0.0 // max |w|
	if !d.warm {
		clear(w)
	} else {
		for _, v := range w {
			top = max(top, math.Abs(v))
		}
	}
	for it := 0; it < d.cfg.MaxValueIterations; it++ {
		k := d.recoverFrom(w, -rho, recoverVal, 0, d.slack*(p.Eta+math.Abs(rho)+top))
		d.expectWaitRows(w, d.accBuf, k)
		diff := 0.0
		top = 0
		for i, b := range d.grid[:k] {
			waitVal := p.Eta*b - rho + d.accBuf[i]
			v := math.Min(recoverVal, waitVal)
			next[i] = v
			if dd := math.Abs(v - w[i]); dd > diff {
				diff = dd
			}
			top = max(top, math.Abs(v))
		}
		if k < len(next) {
			top = max(top, math.Abs(recoverVal))
		}
		for i := k; i < len(next); i++ {
			next[i] = recoverVal
			if dd := math.Abs(recoverVal - w[i]); dd > diff {
				diff = dd
			}
		}
		w, next = next, w
		if diff < 1e-10 {
			// Leave the converged values in buf0 for the next rho.
			d.buf0, d.buf1, d.warm = w, next, true
			return w, nil
		}
	}
	return w, fmt.Errorf("%w: rho = %v", ErrDPNotConverged, rho)
}
