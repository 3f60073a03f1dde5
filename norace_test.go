//go:build !race

package tolerance

const raceEnabled = false
