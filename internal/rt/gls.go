package rt

import (
	"context"
	"runtime/pprof"
)

// Goroutine-identity check for Loop.Do's and Loop.Close's re-entrancy
// detection.
//
// A Loop's executor is a token that the event goroutine or one inline
// caller holds at a time (loop.go). Do must know whether its caller
// already holds that token — a callback re-entering the API — and so runs
// fn inline, or not, and so must take the token on an idle loop or
// marshal fn in and wait. Lane.Post and Schedule ask the same question to
// tell an inline caller's own work from other goroutines' (which the
// caller leaves to the event goroutine). Getting this wrong in the inline
// direction is a correctness bug, not a performance bug: a goroutine
// misidentified as the executor runs loop-confined code concurrently with
// the real one — a data race on every protocol object attached to the
// loop.
//
// An earlier design marked the event goroutine through its pprof
// label slot and treated a pointer match as definitive. That is unsound:
// the runtime copies the parent's label slot into every goroutine it
// spawns, so any goroutine started from inside a loop callback — a
// teardown helper, a user goroutine forked in OnMessage — inherits the
// marker and passes the check while the event goroutine is still
// running. The chaos suite caught exactly that shape (a lingering close
// goroutine, spawned by a watchdog callback, tearing down poller state
// under a live event loop).
//
// Identity therefore compares real goroutine ids: whoever takes the
// token stores its id in Loop.owner, and the check compares the caller's
// id against it. fastGoid (gls_goid.go) reads the id out of the runtime's
// g struct in a few nanoseconds where an assembly getg stub exists, and
// falls back to parsing the stack header elsewhere. Goroutine ids are
// never reused across live goroutines and never inherited, and only the
// holder writes its own id, so the comparison is sound in both
// directions.
//
// The profiler label survives purely as observability: event goroutines
// show up in CPU and goroutine profiles labeled rt-loop=event. Inline
// callers are not relabeled. Nothing reads the label back.

// markEventGoroutine is called once by the event goroutine: it labels
// the goroutine for profiles.
func (l *Loop) markEventGoroutine() {
	if l.labelCtx == nil {
		l.labelCtx = pprof.WithLabels(context.Background(), pprof.Labels("rt-loop", "event"))
	}
	pprof.SetGoroutineLabels(l.labelCtx)
}

// onExecutor reports whether the caller holds l's executor token: the
// event goroutine inside a callback, or a goroutine running a hand-off
// inline.
func (l *Loop) onExecutor() bool { return fastGoid() == l.owner.Load() }
