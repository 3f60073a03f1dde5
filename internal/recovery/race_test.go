//go:build race

package recovery_test

// raceEnabled trims TestGoldenParentDP under the race detector, which slows
// the slowest stationary solves about twentyfold and has nothing to find in
// them: each model's solves run on one goroutine.
const raceEnabled = true
