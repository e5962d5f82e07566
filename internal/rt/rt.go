package rt

import (
	"math/rand"
	"time"
)

// Timer is a handle to a scheduled event. Implementations are returned by
// Runtime.Schedule.
type Timer interface {
	// Stop cancels the timer if it has not yet fired, reporting whether it
	// was still pending. Stopping a fired or stopped timer is a no-op.
	Stop() bool
	// Pending reports whether the timer is scheduled and not stopped.
	Pending() bool
	// When returns the runtime time at which the timer fires (or fired).
	When() time.Duration
}

// Runtime is the engine a protocol stack runs on: a clock, an event
// scheduler, and a random source. All protocol callbacks — timer
// expirations, I/O notifications — are executed serially by one executor
// at a time (the simulator's Run caller, or whichever goroutine holds a
// Loop's executor token: its event goroutine, or a caller running a
// hand-off inline on an idle loop), each after the previous one, so code
// above a Runtime never needs locks for its own state.
type Runtime interface {
	// Now returns the current runtime time: virtual time on a simulator,
	// monotonic time since start on a wall-clock loop.
	Now() time.Duration
	// Schedule runs fn after delay. A negative delay is treated as zero;
	// fn runs after events already queued for the current instant. The
	// returned Timer may be used to cancel.
	Schedule(delay time.Duration, fn func()) Timer
	// Rand returns the runtime's random source. It must only be used by
	// the runtime's executor, inside callbacks (rand.Rand is not
	// concurrency-safe).
	Rand() *rand.Rand
}
