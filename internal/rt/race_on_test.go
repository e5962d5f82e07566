//go:build race

package rt

// raceEnabled skips allocation assertions under the race detector, whose
// instrumentation allocates and whose sync.Pool drops puts at random.
const raceEnabled = true
