package recovery

import (
	"errors"
	"fmt"
	"math"

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
	// BisectIterations bounds the bisection on the average cost for the
	// stationary problem (default 40).
	BisectIterations int
	// MaxValueIterations bounds the stationary value iteration (default 5000).
	MaxValueIterations int
}

func (c DPConfig) withDefaults() DPConfig {
	if c.GridSize <= 0 {
		c.GridSize = 500
	}
	if c.BisectIterations <= 0 {
		c.BisectIterations = 40
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
// window. For Delta_R = infinity the process renews at (threshold-triggered)
// recoveries instead, and the average cost rho solves g(rho) = 0 where g is
// the optimal expected (cost - rho * time) per recovery cycle; rho is found
// by bisection. Crash absorption (probability <= pC2 per step) is ignored by
// the DP and handled by the simulator; the induced bias is O(pC2).
type DPSolution struct {
	// AvgCost is the optimal long-run average cost J* (eq. 5).
	AvgCost float64
	// Thresholds holds the optimal recovery thresholds alpha*_k per window
	// position k = 1..len(Thresholds) (Fig 15, Cor. 1); for
	// DeltaR = infinity it has a single stationary entry.
	Thresholds []float64
	// Grid is the belief grid used.
	Grid []float64
	// Value is the optimal cost-to-go at grid beliefs per window position
	// (finite Delta_R) or the stationary relative value (infinite).
	Value [][]float64
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

// Arena is reusable scratch storage for dpSolver: the stencil tables,
// value-iteration buffers and prediction cache of a solve, kept as raw
// slabs that re-dimension (grow once, then slice) instead of reallocating
// per solve. Solutions computed through a shared arena are bit-identical to
// fresh-solver solutions for any (params, config) sequence — prepare fully
// re-derives every slab entry it reads (guarded by
// TestDPArenaReuseBitIdentical). Solver *output* (DPSolution's value
// arrays, grid and thresholds) is never arena-backed: solutions escape into
// long-lived caches, so they get their own allocations. An Arena is for one
// solve at a time; callers that solve in parallel hold one arena per
// worker (the fleet strategy cache pools them per-P).
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

// SolveDPWith is SolveDP drawing solver scratch from a reusable arena (nil
// allocates fresh scratch, which is exactly SolveDP). The returned solution
// is bit-identical either way and never aliases the arena.
func SolveDPWith(p nodemodel.Params, cfg DPConfig, arena *Arena) (*DPSolution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.DeltaR < 0 {
		return nil, fmt.Errorf("%w: deltaR = %d", ErrBadStrategy, cfg.DeltaR)
	}
	if arena == nil {
		arena = NewArena()
	}

	grid := make([]float64, cfg.GridSize+1)
	for i := range grid {
		grid[i] = float64(i) / float64(cfg.GridSize)
	}
	solver := &dpSolver{p: p, cfg: cfg, grid: grid, ar: arena}
	solver.prepare()

	if cfg.DeltaR != InfiniteDeltaR {
		return solver.solveWindow()
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
	// Stencil from the post-recovery prior pA (used both for the recover
	// action's continuation and the window start), pruned of
	// zero-probability observations.
	resetSt []stencilEntry

	// Double buffers for the stationary value iteration and the shared
	// expectation accumulator. warm records that buf0 holds the converged
	// stopping value of the previous rho, so the next bisection step's
	// fixed-point iteration starts there instead of from zero — successive
	// rhos differ by a halving interval, so their fixed points are close
	// and the iteration converges in a fraction of the cold-start sweeps.
	buf0, buf1, accBuf []float64
	warm               bool
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

// prepare caches the belief-transition stencils. All float storage comes
// from one arena slab carved into the solver's views; the slabs are
// zero-filled on reuse (grabFloats/grabInts), because the stencil fill
// below skips zero-probability entries — an arena inherited from a
// different (params, config) solve must not leak stale weights through
// that skip path.
func (d *dpSolver) prepare() {
	numObs := d.p.NumObs()
	zH, zC := d.p.ZHealthy, d.p.ZCompromised
	g := len(d.grid)
	arena := d.ar.grabFloats(2*numObs*g + 4*g)
	cut := func(size int) []float64 {
		s := arena[:size:size]
		arena = arena[size:]
		return s
	}
	d.stWlo = cut(numObs * g)
	d.stWhi = cut(numObs * g)
	d.buf0 = cut(g)
	d.buf1 = cut(g)
	d.accBuf = cut(g)
	preds := cut(g)
	d.stIdx = d.ar.grabInts(numObs * g)
	for i, b := range d.grid {
		preds[i] = d.p.PredictBelief(b, nodemodel.Wait)
	}
	for o := 0; o < numObs; o++ {
		base := o * g
		zh, zc := zH.Prob(o), zC.Prob(o)
		for i, pb := range preds {
			st := stencilEntryFor(pb, zh, zc, len(d.grid)-1)
			if st.po == 0 {
				continue // zero weights: exact-zero contribution
			}
			d.stIdx[base+i] = st.idx
			d.stWlo[base+i] = st.po * st.omfrac
			d.stWhi[base+i] = st.po * st.frac
		}
	}
	d.resetSt = d.ar.resetSt[:0]
	for o := 0; o < numObs; o++ {
		if st := stencilEntryFor(d.p.PA, zH.Prob(o), zC.Prob(o), len(d.grid)-1); st.po != 0 {
			d.resetSt = append(d.resetSt, st)
		}
	}
	d.ar.resetSt = d.resetSt
	d.warm = false
}

// expectWaitAll computes E_o[ W(b'(b,o)) ] under Wait for every grid
// belief at once into acc — the dense-slice-product form of the Bellman
// expectation. Each observation column is swept across the whole grid, so
// consecutive iterations touch independent accumulator cells
// (instruction-level parallelism instead of one serial add chain per grid
// point); the first column assigns instead of accumulating, which fuses
// the zeroing pass.
func (d *dpSolver) expectWaitAll(w, acc []float64) {
	g := len(d.grid)
	acc = acc[:g]
	numObs := len(d.stWlo) / g
	for o := 0; o < numObs; o++ {
		base := o * g
		wlo := d.stWlo[base : base+g : base+g]
		whi := d.stWhi[base : base+g : base+g]
		idx := d.stIdx[base : base+g : base+g]
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

// expectReset computes E_o[ W(b'(o)) ] from the post-recovery prior pA.
func (d *dpSolver) expectReset(w []float64) float64 {
	e := 0.0
	for _, st := range d.resetSt {
		e += st.po * (w[st.idx]*st.omfrac + w[st.idx+1]*st.frac)
	}
	return e
}

// solveWindow performs backward induction over one calendar window of
// length DeltaR: position DeltaR carries the forced recovery (cost 1) and
// ends the window; earlier positions choose between waiting (cost eta*b)
// and recovering (cost 1, belief reset to pA).
func (d *dpSolver) solveWindow() (*DPSolution, error) {
	deltaR := d.cfg.DeltaR
	g := len(d.grid)
	// One backing array for all window stages: the per-stage values are
	// solver output (DPSolution.Value), so they are allocated per solve —
	// never from the arena — but one block keeps the backward induction off
	// the allocator.
	backing := make([]float64, deltaR*g)
	stages := make([][]float64, deltaR)
	for k := range stages {
		stages[k] = backing[k*g : (k+1)*g : (k+1)*g]
	}
	thresholds := make([]float64, max(deltaR-1, 1))
	avg := d.inductWindow(stages, thresholds)
	if deltaR == 1 {
		thresholds[0] = 0
	}
	return &DPSolution{
		AvgCost:    avg,
		Thresholds: thresholds,
		Grid:       d.grid,
		Value:      stages,
	}, nil
}

// inductWindow runs the backward induction into the caller's stage and
// threshold storage and returns the average window cost. It is the
// allocation-free core of solveWindow, split out so the arena-reuse guard
// test can re-solve without the output allocations. stages must hold
// DeltaR grid-length rows; thresholds holds max(DeltaR-1, 1) entries
// (position k's threshold at index k-1; untouched for DeltaR = 1).
func (d *dpSolver) inductWindow(stages [][]float64, thresholds []float64) float64 {
	p := d.p
	deltaR := d.cfg.DeltaR
	forced := stages[deltaR-1]
	for i := range forced {
		forced[i] = 1 // forced recovery cost; window ends here
	}

	for k := deltaR - 1; k >= 1; k-- {
		next := stages[k] // V(., k+1)
		recoverVal := 1 + d.expectReset(next)
		d.expectWaitAll(next, d.accBuf)
		cur := stages[k-1]
		threshold := 1.0
		set := false
		for i, b := range d.grid {
			waitVal := p.Eta*b + d.accBuf[i]
			if recoverVal <= waitVal {
				cur[i] = recoverVal
				if !set {
					threshold = b
					set = true
				}
			} else {
				cur[i] = waitVal
			}
		}
		thresholds[k-1] = threshold
	}

	if deltaR == 1 {
		return 1 // every step is a forced recovery
	}
	return d.expectReset(stages[0]) / float64(deltaR)
}

// solveStationary solves the unconstrained problem by bisection on rho over
// the renewal-at-recovery decomposition: for fixed rho the optimal stopping
// value W satisfies
//
//	W(b) = min( 1 - rho,  eta*b - rho + E_o W(b') ),
//
// and the optimal rho zeroes the cycle-start value E_o W(b_1(o)).
func (d *dpSolver) solveStationary() (*DPSolution, error) {
	p := d.p
	lo, hi := 0.0, p.Eta+1
	var w []float64
	var err error
	for it := 0; it < d.cfg.BisectIterations; it++ {
		rho := (lo + hi) / 2
		w, err = d.stoppingValue(rho)
		if err != nil {
			// Above the average cost of waiting forever the stopping value
			// has no finite fixed point: every sweep lowers it. An iterate
			// whose cycle-start value is already negative has answered the
			// bisection's question (rho is too high) without converging; it
			// is no start point for the next probe.
			if d.expectReset(w) >= 0 {
				return nil, err
			}
			hi = rho
			d.warm = false
			continue
		}
		if d.expectReset(w) > 0 {
			lo = rho
		} else {
			hi = rho
		}
	}
	rho := (lo + hi) / 2
	w, err = d.stoppingValue(rho)
	if err != nil {
		return nil, err
	}

	// Extract the stationary threshold.
	threshold := 1.0
	recoverVal := 1 - rho
	d.expectWaitAll(w, d.accBuf)
	for i, b := range d.grid {
		waitVal := p.Eta*b - rho + d.accBuf[i]
		if recoverVal <= waitVal {
			threshold = b
			break
		}
	}
	return &DPSolution{
		AvgCost:    rho,
		Thresholds: []float64{threshold},
		Grid:       d.grid,
		Value:      [][]float64{append([]float64(nil), w...)},
	}, nil
}

// stoppingValue iterates the optimal-stopping fixed point for a given rho.
// The iteration ping-pongs between the solver's two value buffers instead
// of allocating a fresh array per sweep, and warm-starts from the previous
// rho's fixed point when one is available (the fixed point for each rho is
// unique and the iteration is a contraction, so the start point changes
// only the sweep count, not the limit — within the 1e-10 stopping
// tolerance). The returned slice aliases the solver's converged buffer: it
// is valid until the next stoppingValue call, and callers that keep it
// (solveStationary's final solution) copy it themselves. During bisection
// the value is only read through expectReset before the next call, so the
// aliasing saves one grid-sized allocation per bisection step. With
// ErrDPNotConverged the slice is the last iterate, not a fixed point.
func (d *dpSolver) stoppingValue(rho float64) ([]float64, error) {
	p := d.p
	recoverVal := 1 - rho
	w, next := d.buf0, d.buf1
	if !d.warm {
		for i := range w {
			w[i] = 0
		}
	}
	for it := 0; it < d.cfg.MaxValueIterations; it++ {
		diff := 0.0
		d.expectWaitAll(w, d.accBuf)
		for i, b := range d.grid {
			waitVal := p.Eta*b - rho + d.accBuf[i]
			v := math.Min(recoverVal, waitVal)
			next[i] = v
			if dd := math.Abs(v - w[i]); dd > diff {
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
