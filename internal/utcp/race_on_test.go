//go:build race

package utcp

// raceEnabled skips allocation assertions under the race detector, whose
// instrumentation allocates.
const raceEnabled = true
