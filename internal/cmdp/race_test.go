//go:build race

package cmdp

// raceEnabled trims the random oracle test under the race detector, which
// slows the tableau's dense pivots about thirtyfold and has nothing to find
// in them: both solvers run on one goroutine.
const raceEnabled = true
