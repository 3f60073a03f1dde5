//go:build race

package tolerance

// raceEnabled trims TestGoldenParentSolveCold under the race detector, which
// slows the DP sweeps about tenfold and has nothing to find in them: each
// solve runs on one goroutine.
const raceEnabled = true
