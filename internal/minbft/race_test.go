//go:build race

package minbft

// raceEnabled trims every schedule test to a quarter of its seeds under the
// race detector, which has nothing to find in them: each schedule runs on
// one goroutine.
const raceEnabled = true
