//go:build !race

package minbft

const raceEnabled = false
