//go:build !race

package utcp

const raceEnabled = false
