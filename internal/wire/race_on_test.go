//go:build race

package wire

// raceEnabled lets timing-shaped assertions skip under the race
// detector, whose instrumentation slows every call several-fold.
const raceEnabled = true
