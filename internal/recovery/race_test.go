//go:build race

package recovery

// RaceEnabled trims TestGoldenParentDP under the race detector, which slows
// the slowest stationary solves about twentyfold and has nothing to find in
// them (each model's solves run on one goroutine), and skips the allocation
// budgets, whose counts the detector's instrumentation changes.
const RaceEnabled = true
