//go:build race

package fleet

// raceEnabled skips the allocation guards of the strategy cache — the race
// detector's instrumentation changes what allocates — and runs the lease
// harness on a quarter of its seeds.
const raceEnabled = true
