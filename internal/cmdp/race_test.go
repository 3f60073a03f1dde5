//go:build race

package cmdp

// raceEnabled trims the random oracle tests under the race detector, which
// slows the tableau's dense pivots about thirtyfold and has nothing to find
// in them: both solvers run on one goroutine. It also loosens the pooled
// Solve's allocation count, since the race detector drops pooled arenas at
// random.
const raceEnabled = true
