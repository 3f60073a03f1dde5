//go:build race

package ppo

// raceEnabled skips the allocation count of TestPolicyActionWarmZeroAllocs:
// under the race detector sync.Pool drops a random share of the values put
// back, so a warm Action allocates by design there.
const raceEnabled = true
