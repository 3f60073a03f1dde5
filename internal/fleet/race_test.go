//go:build race

package fleet

// raceEnabled skips the allocation guards of the strategy cache: the race
// detector's instrumentation changes what allocates.
const raceEnabled = true
