package recovery

import (
	"fmt"
	"sync"

	"tolerance/internal/nodemodel"
)

// Ladder is Problem 1's finite-Delta_R backward induction for one node
// model and belief grid, indexed by steps remaining instead of by window
// position. Every window starts from the same forced-recovery terminal
// V = 1, so U_r, the value with r steps remaining, and its threshold tau_r
// are the same for every Delta_R > r: window Delta_R's position-k threshold
// is tau_{Delta_R-k} and its average cost is e_{Delta_R-1} / Delta_R, where
// e_r = E_o U_r(b'(o)) from the post-recovery prior. These are the float
// operations of a per-Delta_R induction in the same order, so every window
// read from a ladder is bit-identical to solving that Delta_R alone.
//
// A ladder keeps only U_r at its current depth, tau and e. Extend resumes
// from the stored U_r and draws the stencils from an arena (prepare
// re-derives them whole), so neither the order nor the size of extensions
// can change a bit. A Ladder is safe for concurrent use.
type Ladder struct {
	p        nodemodel.Params
	gridSize int

	mu  sync.Mutex
	u   []float64 // U_r at r = len(tau), one value per grid belief
	tau []float64 // tau[r-1] = tau_r
	e   []float64 // e[r] = expectReset(U_r); empty before the first stage
}

// NewLadder returns an empty ladder for the model on a belief grid of
// gridSize intervals (<= 0 selects DPConfig's default).
func NewLadder(p nodemodel.Params, gridSize int) (*Ladder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := DPConfig{GridSize: gridSize}.withDefaults().GridSize
	u := make([]float64, g+1)
	for i := range u {
		u[i] = 1 // forced recovery cost; the window ends here
	}
	return &Ladder{p: p, gridSize: g, u: u}, nil
}

// windowLadder is the one-window ladder of a finite SolveDPWith: U_r lives
// in the arena's first value buffer and tau, e in the storage prepare
// carved for the window, so a single solve allocates only its solution.
func (d *dpSolver) windowLadder() *Ladder {
	for i := range d.buf0 {
		d.buf0[i] = 1
	}
	return &Ladder{p: d.p, gridSize: d.cfg.GridSize, u: d.buf0, tau: d.tauBuf, e: d.eBuf}
}

// Depth returns the number of induction stages the ladder holds: it serves
// every window up to Delta_R = Depth()+1 without running another.
func (l *Ladder) Depth() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.tau)
}

// Extend runs the induction stages the ladder lacks to reach depth,
// drawing the stencils from arena (nil draws pooled scratch). A ladder
// already that deep is left alone.
func (l *Ladder) Extend(depth int, arena *Arena) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.extend(depth, arena)
}

func (l *Ladder) extend(depth int, arena *Arena) {
	if depth <= len(l.tau) {
		return
	}
	if arena == nil {
		arena = arenas.Get().(*Arena)
		defer arenas.Put(arena)
	}
	d := dpSolver{p: l.p, cfg: DPConfig{GridSize: l.gridSize}.withDefaults(), ar: arena}
	d.prepare()
	l.climb(&d, depth)
}

// Window returns the optimal solution for a window of deltaR >= 1 steps,
// extending the ladder on pooled scratch if it is not yet deltaR-1 deep.
// The solution does not alias the ladder.
func (l *Ladder) Window(deltaR int) (*DPSolution, error) {
	if deltaR < 1 {
		return nil, fmt.Errorf("%w: ladder window deltaR = %d", ErrBadStrategy, deltaR)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.extend(deltaR-1, nil)
	return l.window(deltaR), nil
}

// climb runs stages len(tau)+1 .. depth on a prepared solver. Stage r
// reads U_{r-1} through e_{r-1}, recoverFrom's scan and expectWaitRows,
// all taken before it writes, so U is overwritten in place.
func (l *Ladder) climb(d *dpSolver, depth int) {
	if len(l.e) == 0 {
		l.e = append(l.e, d.expectReset(l.u))
	}
	for r := len(l.tau) + 1; r <= depth; r++ {
		l.tau = append(l.tau, d.stage(l.u, l.e[r-1]))
		l.e = append(l.e, d.expectReset(l.u))
	}
}

// window reads window deltaR from a ladder at least deltaR-1 deep.
func (l *Ladder) window(deltaR int) *DPSolution {
	if deltaR == 1 {
		// Every step is a forced recovery.
		return &DPSolution{AvgCost: 1, Thresholds: []float64{0}}
	}
	thresholds := make([]float64, deltaR-1)
	for k := range thresholds {
		thresholds[k] = l.tau[deltaR-k-2] // position k+1: tau_{deltaR-k-1}
	}
	return &DPSolution{AvgCost: l.e[deltaR-1] / float64(deltaR), Thresholds: thresholds}
}

// stage is one step of the backward induction: it overwrites u = U_{r-1}
// with U_r, where waiting costs eta*b plus the expected next value and
// recovering costs 1 plus e = expectReset(U_{r-1}), and returns tau_r, the
// first grid belief at which recovering is no dearer than waiting (1 when
// there is none).
//
// The rows [k, g) that recoverFrom proves recover get recoverVal without an
// expectation, and tau_r is the first recovering row below k, else grid[k].
// Every value and weight here is >= 0, so the margin is relative. With
// u = 2^-53 and n observations, each term of the sweep's wait value rounds
// at most n+2 times, so it is at least its exact value times 1 - (n+2)*u.
// L's row mass sums 2n weights, so the computed L is at most its exact
// value times 1 + (2n+2)*u, and the test's own two operations add 2u: the
// skip is exact if rel >= (3n+6)*u. rel = slack, about 900*(n+4)*u, is
// over 300 times that for every n.
func (d *dpSolver) stage(u []float64, e float64) float64 {
	recoverVal := 1 + e
	k := d.recoverFrom(u, 0, recoverVal, d.slack, 0)
	d.expectWaitRows(u, d.accBuf, k)
	threshold := 1.0
	if k < len(d.grid) {
		threshold = d.grid[k]
	}
	set := false
	for i, b := range d.grid[:k] {
		waitVal := d.p.Eta*b + d.accBuf[i]
		if recoverVal <= waitVal {
			u[i] = recoverVal
			if !set {
				threshold = b
				set = true
			}
		} else {
			u[i] = waitVal
		}
	}
	for i := k; i < len(u); i++ {
		u[i] = recoverVal
	}
	return threshold
}
