//go:build !race

package cmdp

const raceEnabled = false
