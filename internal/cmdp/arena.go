package cmdp

import (
	"fmt"
	"sync"
)

// Arena is reusable storage for one LP at a time: the transition kernel
// BinomialModel builds (the Model, its row headers and one backing array),
// the binomial pmf rows it is priced from, and the policy evaluator's
// factorization, update vectors and action and permutation tables. Each
// slab grows once and is then resliced and cleared, so a warm arena builds
// and solves a kernel without allocating. Every build and every solve
// clears each slab it carves before deriving it in full, so a solve on an
// arena that last held a larger or a different kernel is bit-identical to
// a solve on a fresh one (TestArenaReuseBitIdentical). What a solve returns
// never aliases the arena.
type Arena struct {
	model  Model
	fs     [NumActions][][]float64 // model.FS
	rows   [][]float64             // the kernel's row headers, action-major
	kernel []float64               // the kernel's entries, row after row
	pmf    []float64               // binomialRows' scratch
	eval   []float64               // the evaluator's float scratch
	ints   []int                   // the evaluator's actions and permutation
}

// arenas pools the arenas of solves that bring none of their own (Solve),
// and of callers that hold one across a build and a solve (AcquireArena).
var arenas = sync.Pool{New: func() any { return new(Arena) }}

// AcquireArena returns an arena from the package pool; Release hands it
// back.
func AcquireArena() *Arena { return arenas.Get().(*Arena) }

// Release returns the arena to the package pool. A model the arena built
// must not be used afterwards.
func (a *Arena) Release() { arenas.Put(a) }

// grab returns a zeroed slab of n entries from *buf, growing it if it is
// too small.
func grab[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
		return *buf
	}
	s := (*buf)[:n:n]
	clear(s)
	return s
}

// BinomialModel builds NewBinomialModel's kernel in the arena. The model is
// valid until the arena's next BinomialModel call or its Release.
//
// Each state's Binomial(s, q) pmf is computed once and shared by both
// actions, and every row of f_S is carved from one backing array.
func (a *Arena) BinomialModel(smax, f int, epsilonA, q, eps float64) (*Model, error) {
	if !(q >= 0 && q <= 1) { // also rejects NaN
		return nil, fmt.Errorf("%w: q = %v", ErrInvalidModel, q)
	}
	if eps <= 0 {
		eps = 1e-9
	}
	n := max(smax+1, 0)
	a.model = Model{SMax: smax, F: f, EpsilonA: epsilonA, FS: a.fs[:]}
	rows := grab(&a.rows, NumActions*n)
	backing := grab(&a.kernel, NumActions*n*n)
	for act := range a.fs {
		a.fs[act] = rows[act*n : (act+1)*n : (act+1)*n]
		for s := range a.fs[act] {
			a.fs[act][s], backing = backing[:n:n], backing[n:]
		}
	}
	pmf := newBinomialRows(smax, q, grab(&a.pmf, 2*(max(smax, 0)+1)))
	for s := 0; s <= smax; s++ {
		probs := pmf.row(s)
		for act := 0; act < NumActions; act++ {
			row := a.fs[act][s]
			for k, pk := range probs {
				row[min(k+act, smax)] += pk
			}
			// Smooth and renormalize.
			total := 0.0
			for i := range row {
				row[i] += eps
				total += row[i]
			}
			for i := range row {
				row[i] /= total
			}
		}
	}
	if err := a.model.Validate(); err != nil {
		return nil, err
	}
	return &a.model, nil
}
