//go:build !race

package recovery

const RaceEnabled = false
