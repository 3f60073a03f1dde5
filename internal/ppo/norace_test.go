//go:build !race

package ppo

const raceEnabled = false
