package wire

import (
	"time"

	"minion/internal/tcp"
)

// Connection-lifecycle hardening: per-connection deadlines driven by the
// loop's timer wheel, a hard-abort path that latches a typed error on both
// directions, and the hooks the minion layer uses to keep datagram
// accounting exact through every teardown shape (OnError), to shed
// lowest-priority queued work instead of dying (OnStall), and to flush
// gracefully at group shutdown (OnDrain).
//
// The watchdog is a single rt.Loop timer per connection — no goroutine,
// no per-I/O timer churn. It re-arms itself at the earliest upcoming
// deadline, so a deadline fires between T and ~T plus one check interval
// late, never early. Progress tracking is nearly free: reads bump an
// atomic timestamp; the write-stall clock is a loop-time field maintained
// under wmu at points the write path already locks.

// timeoutError is the concrete type behind ErrTimeout; it satisfies
// net.Error so generic `ne.Timeout()` checks classify it correctly.
type timeoutError struct{}

func (timeoutError) Error() string   { return "wire: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return false }

// ErrTimeout is the typed error a connection latches when a read-idle or
// write-stall deadline expires (and the error wire.Dial wraps on a connect
// timeout). Compare with errors.Is; it also satisfies net.Error with
// Timeout() == true.
var ErrTimeout error = timeoutError{}

// StallPolicy selects what happens when a connection's queued send bytes
// make no kernel progress for Config.WriteStallTimeout.
type StallPolicy int

const (
	// StallEvict aborts the connection with ErrTimeout — the default: a
	// peer that stopped reading is holding pooled buffers hostage.
	StallEvict StallPolicy = iota
	// StallShed consults the OnStall hook first: if it frees queued work
	// (sheds datagrams upstream), the stall clock restarts and the
	// connection lives; if there is nothing left to shed, the policy
	// escalates to eviction. Bytes already in the wire queue are never
	// shed — they may be mid-record — only whole upstream datagrams are.
	StallShed
)

// OnStall registers the shed hook consulted under StallShed: it runs on
// the event loop at a write-stall deadline and returns the number of
// queued payload bytes it freed (0 = nothing left, escalate to eviction).
// Must be called on the loop (typically at construction, via Do).
func (c *Conn) OnStall(fn func() int) { c.onStall = fn }

// OnDrain registers the graceful-drain hook Group.Shutdown runs on the
// event loop before closing the connection — the upper layer's chance to
// flush queued datagrams and send its end-of-stream signal (TLS
// close_notify). Must be called on the loop.
func (c *Conn) OnDrain(fn func()) { c.onDrain = fn }

// OnError registers a loop-confined callback fired exactly once when the
// connection reaches a terminal state — an abort, a socket error, or
// teardown — with the latched error. The minion layer uses it to report
// the fate of every datagram it still holds; it fires before buffers are
// irrecoverable, on the event loop (or inline during teardown once the
// loop is gone). The error latches: a hook registered after the
// connection already failed fires at once with the cause. Must be called
// on the loop.
func (c *Conn) OnError(fn func(error)) {
	if c.errCause != nil && fn != nil {
		fn(c.errCause)
		return
	}
	c.onError = fn
}

// OnEOF registers a loop-confined callback fired at most once when the
// peer closes its send direction gracefully (the read side reaches EOF
// with no error). It fires after the last delivered byte, and only then
// — a connection torn down by error or abort reports through OnError
// instead. The send side remains usable; servers that treat a client's
// FIN as departure (relays) close from the hook. Must be called on the
// loop.
func (c *Conn) OnEOF(fn func()) { c.onEOF = fn }

// fireError delivers the terminal error to the OnError hook, once.
// Loop-confined (or post-loop teardown).
func (c *Conn) fireError(err error) {
	if c.errCause != nil {
		return
	}
	if err == nil {
		err = tcp.ErrClosed
	}
	c.errCause = err
	if c.onError != nil {
		c.onError(err)
	}
}

// postError delivers err to fireError via the event loop — the door for
// the writer goroutine, which may not touch loop-confined state directly.
// Once the lane is closed, cleanup's backstop owns delivery.
func (c *Conn) postError(err error) {
	c.lane.Post(func() { c.fireError(err) })
}

// noteRead stamps the read-idle clock; called from every path that moved
// peer bytes into the connection.
func (c *Conn) noteRead() { c.lastRead.Store(int64(c.loop.Now())) }

// noteWriteProgress maintains the write-stall clock. Caller holds wmu.
// queued is whether bytes remain queued or in flight; progressed is
// whether this call represents kernel progress (bytes consumed, or new
// bytes entering an empty queue, which starts a fresh stall window).
func (c *Conn) noteWriteProgressLocked(queued, progressed bool) {
	switch {
	case !queued:
		c.wStall = 0
	case progressed || c.wStall == 0:
		now := c.loop.Now()
		if now <= 0 {
			now = 1 // 0 means "clock off"
		}
		c.wStall = now
	}
}

// watchdogFloor bounds how often the watchdog can run; deadlines are
// detected at this granularity at worst.
const watchdogFloor = 5 * time.Millisecond

// armWatchdog schedules the first watchdog check; called once from newConn
// when either deadline knob is set.
func (c *Conn) armWatchdog() {
	if c.cfg.ReadIdleTimeout <= 0 && c.cfg.WriteStallTimeout <= 0 {
		return
	}
	// rerr is necessarily nil at construction, so the read clock is live.
	c.scheduleWatch(c.nextWatch(c.loop.Now(), true))
}

func (c *Conn) scheduleWatch(delay time.Duration) {
	if delay < watchdogFloor {
		delay = watchdogFloor
	}
	c.loop.Schedule(delay, c.watchdog)
}

// nextWatch computes the delay until the earliest applicable deadline.
// readLive is false once the receive side has latched an error (a peer's
// EOF, say) — the read-idle clock then no longer participates, or an
// already-past read deadline would pin the watchdog at its floor.
func (c *Conn) nextWatch(now time.Duration, readLive bool) time.Duration {
	next := time.Duration(1<<62 - 1)
	if d := c.cfg.ReadIdleTimeout; d > 0 && readLive {
		at := time.Duration(c.lastRead.Load()) + d
		if at < next {
			next = at
		}
	}
	if d := c.cfg.WriteStallTimeout; d > 0 {
		c.wmu.Lock()
		st := c.wStall
		c.wmu.Unlock()
		at := now + d // stall clock off: nothing can expire sooner than one full window
		if st > 0 {
			at = st + d
		}
		if at < next {
			next = at
		}
	}
	return next - now
}

// watchdog is the deadline check, run on the event loop by the timer
// wheel. It aborts on a violated deadline, sheds via OnStall when the
// policy allows, and otherwise re-arms itself at the next deadline. Once
// both directions are dead (or unmonitored) it retires instead of
// re-arming — errors never unlatch, so nothing can expire anymore.
func (c *Conn) watchdog() {
	if c.watchStop.Load() {
		return
	}
	now := c.loop.Now()
	readLive := c.cfg.ReadIdleTimeout > 0 && c.rerr == nil
	if readLive && now-time.Duration(c.lastRead.Load()) >= c.cfg.ReadIdleTimeout {
		c.abortOnLoop(ErrTimeout)
		return
	}
	writeLive := false
	if d := c.cfg.WriteStallTimeout; d > 0 {
		c.wmu.Lock()
		writeLive = c.werr == nil
		stalled := writeLive && c.wStall > 0 && now-c.wStall >= d
		c.wmu.Unlock()
		if stalled {
			shed := 0
			if c.cfg.StallPolicy == StallShed && c.onStall != nil {
				shed = c.onStall()
			}
			if shed <= 0 {
				c.abortOnLoop(ErrTimeout)
				return
			}
			// Shedding bought time: restart the stall window.
			c.wmu.Lock()
			if c.wStall > 0 {
				c.wStall = now
			}
			c.wmu.Unlock()
		}
	}
	if !readLive && !writeLive {
		return
	}
	c.scheduleWatch(c.nextWatch(now, readLive))
}

// Abort hard-fails the connection: err (ErrTimeout, a chaos fault, a
// shutdown deadline) is latched on both directions, queued writes are
// released and reported through OnError/OnResult, and teardown proceeds
// without the graceful linger drain. Idempotent and safe from any
// goroutine; a plain Close already in progress is accelerated, not
// duplicated.
func (c *Conn) Abort(err error) {
	if err == nil {
		err = tcp.ErrClosed
	}
	if !c.lane.Post(func() { c.abortOnLoop(err) }) {
		// Loop gone (group shutdown): teardown already ran or will run
		// inline; the plain close path handles it.
		c.Close()
	}
}

// abortOnLoop is Abort's loop-confined body (the watchdog calls it
// directly). It latches the error on both directions and hands off to
// Close for the ordered teardown — which completes almost immediately,
// because the write side is failed here and the read side finished.
func (c *Conn) abortOnLoop(err error) {
	c.watchStop.Store(true)
	c.aborted.Store(true)
	c.failCause.CompareAndSwap(nil, &err)
	c.failWrites(err)
	if c.pl == nil {
		// The reader goroutine may be blocked in the kernel: a past
		// deadline kicks it out, and it surfaces the latched cause.
		c.nc.SetReadDeadline(time.Unix(1, 0))
	}
	c.endRead(err)
	c.Close()
}

// beginDrain runs the graceful-close sequence on the connection's loop:
// the drain hook first (upper-layer flush, TLS close_notify), then the
// ordinary Close, whose write-side wait delivers everything already
// queued before the FIN. Called by Group.Shutdown.
func (c *Conn) beginDrain() {
	if !c.lane.Post(func() {
		if c.onDrain != nil {
			c.onDrain()
		}
		c.Close()
	}) {
		c.Close()
	}
}
