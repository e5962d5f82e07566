package rt

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Parker integrates an external event source with a Loop's parking: when
// one is installed, the event goroutine sleeps inside Park (typically a
// kernel readiness wait — epoll_wait over the loop's sockets) instead of
// on its internal channel, so I/O readiness and lane posts share one
// parking mechanism and a readiness event wakes the event goroutine
// directly, with no intermediate goroutine hop.
//
// The contract:
//
//   - Park is called only by the event goroutine, with no loop lock held,
//     and blocks until Wake is called, an external event arrives, or d
//     elapses (d < 0 means indefinitely). It may deliver events before
//     returning — raising Signals or posting to the loop's lanes is safe
//     and is the intended delivery path.
//   - Park may return spuriously; the loop re-checks all work (timers,
//     lanes) after every return, so a conservative Park is always
//     correct.
//   - Wake must be safe from any goroutine at any time and must unpark a
//     concurrent or subsequent Park. Wakes may coalesce. A Wake may be
//     elided only if the parker can prove the event goroutine is not and
//     will not be parked before it next re-checks work (e.g. the call
//     arrives from inside Park's own dispatch phase).
//   - Park's timeout may be honored at a coarser granularity than the
//     Loop's clock; timers then fire up to one granule late, never early.
//     The Linux poller's deadline is a Go timer, which the runtime fires
//     from a millisecond-grained epoll_wait, unlike an unpolled loop's
//     timer file.
type Parker interface {
	Park(d time.Duration)
	Wake()
}

// parkerBox wraps a Parker for atomic publication.
type parkerBox struct{ p Parker }

// pad64 separates fields written by different goroutines onto distinct
// cache lines (64 bytes on amd64/arm64), so a producer hammering its
// side of a structure never invalidates the line the event goroutine is
// spinning on — the false-sharing guard applied to the runtime's
// per-loop hot state.
type pad64 [64]byte

// Loop is the wall-clock Runtime: a monotonic clock (time since NewLoop),
// a hashed timer wheel ordered by (deadline, schedule sequence) exactly
// like the simulator's event queue, and a serial executor that runs every
// callback, one at a time.
//
// The executor is a token, not a fixed goroutine. The loop's event
// goroutine holds it while it fires timers and drains lanes. When the
// loop is idle — no executor running, nothing queued on any lane, no timer
// due — Do and Lane.TryRun let the calling goroutine take the token
// instead: it runs its hand-off on the spot, drains the loop work that
// hand-off queued, and hands the token back, so an idle loop costs a
// hand-off no goroutine wake-up. Whoever holds the token, callbacks run
// serially and in the same order (due timers before lane work, per-lane
// FIFO), and each one happens after the previous through the loop mutex.
// That preserves the simulator's "no locks above the kernel" invariant in
// real deployments: protocol state machines attached to a Loop are only
// ever touched by the loop's current executor. External goroutines
// (socket readers, application threads) hand work in with Post, Do, or a
// Lane; Schedule and Stop are safe from any goroutine.
//
// A Loop serves one connection or thousands: immediate work arrives on
// Lanes — connection-keyed FIFO queues — and the loop drains one lane's
// accumulated batch at a time, round-robin across lanes. Per-lane FIFO
// order is what preserves each connection's delivery order when many
// connections multiplex one loop; cross-lane rotation keeps one busy
// connection from starving the rest. See LoopGroup for distributing
// connections across a loop per core.
type Loop struct {
	start    time.Time
	labelCtx context.Context // rt-loop=event profiler label for the event goroutine

	// start is read by every Now; the mutex region below is written
	// constantly. Keep them on separate lines.
	_ pad64

	mu      sync.Mutex
	wheel   wheel
	seq     uint64
	rng     *rand.Rand
	closed  bool
	runq    []*Lane // lanes with pending callbacks; each appears at most once
	defLane Lane    // lane used by Post and Do

	// The executor token: busy while the event goroutine or one inline
	// caller runs loop work. owner is that goroutine's id (0 while the
	// token is free), so a callback re-entering Do or Close recognises
	// itself; it is written under mu and read lock-free. inline marks the
	// holder as a caller rather than the event goroutine, and foreign
	// records a post or schedule by another goroutine meanwhile: the
	// caller leaves such work to the event goroutine.
	busy    bool
	owner   atomic.Int64
	inline  bool
	foreign bool

	// earliest is a lower bound on the wheel's earliest deadline
	// (noDeadline when empty). Inserts keep it exact; only unlinking the
	// entry it names makes it stale, so wheel.next's slot scan runs only
	// after such an unlink, never on a hand-off that left the wheel alone.
	earliest      time.Duration
	earliestStale bool

	// Sleep state, so producers poke only an event goroutine that is
	// actually parked with nobody standing in for it (and, for timers,
	// only with a deadline earlier than the one it is aimed at): a
	// running executor re-checks everything under mu before it lets go
	// of the token, so no wakeup is ever needed — or sent — while it runs.
	sleeping bool
	sleepAt  time.Duration // deadline the sleep is aimed at; noDeadline = none
	sleep    *time.Timer   // the sleep without a Parker or a timer file; aimed under mu

	// tf is the Linux sleep without a Parker, opened the first time a
	// deadline is pending: from then on the event goroutine always parks
	// on it, so a re-aim never has to wake it. A loop that never
	// schedules a timer parks on the wake channel and opens no file.
	// Written under mu; tfFailed stops retrying after the kernel refused.
	tf       atomic.Pointer[timerFile]
	tfFailed bool

	// Token-holder scratch: the timer batch being fired, and the lane
	// batch being run with its lane, kept so a release after a recovered
	// panic can put back what the interrupted batch did not run.
	due      []*wentry
	draining []func()
	drainLn  *Lane

	wake    chan struct{}             // 1-buffered poke for the event goroutine
	done    chan struct{}             // closed when the event goroutine exits
	parker  atomic.Pointer[parkerBox] // optional external parking mechanism
	wakeups atomic.Uint64             // returns from parking (a test hook)

	// Test hooks: wake-ups sent to a sleeper without a Parker, and that
	// count as the event goroutine last parked (mu). They differ from the
	// moment a poke is sent until its goroutine has run and re-parked.
	pokes       atomic.Uint64
	parkedPokes uint64
}

// noDeadline is the deadline of "no timer pending".
const noDeadline = time.Duration(math.MaxInt64)

// inlineSteps bounds the lane batches a caller drains after its own
// hand-off before it hands the token back; whatever is left wakes the
// event goroutine.
const inlineSteps = 16

// NewLoop starts a wall-clock runtime. The caller must Close it when done
// to release the event goroutine.
func NewLoop() *Loop {
	l := &Loop{
		start:    time.Now(),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
		earliest: noDeadline,
		sleepAt:  noDeadline,
		sleep:    time.NewTimer(time.Hour),
	}
	l.sleep.Stop()
	l.defLane.l = l
	ready := make(chan struct{})
	go l.run(ready)
	<-ready
	return l
}

// Now returns the monotonic time since the loop started.
func (l *Loop) Now() time.Duration { return time.Since(l.start) }

// Rand returns the loop's random source. Like every Runtime's source it
// must only be used by the loop's executor (i.e. inside callbacks).
func (l *Loop) Rand() *rand.Rand { return l.rng }

// Schedule runs fn on the loop's executor after delay. Safe to call from
// any goroutine, including from inside a callback.
func (l *Loop) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	l.mu.Lock()
	t := &wentry{l: l, at: l.Now() + delay, seq: l.seq, fn: fn, slot: -1}
	l.seq++
	l.noteForeign()
	if !l.closed {
		l.wheel.insert(t)
		l.earliest = min(l.earliest, t.at)
	} else {
		t.stopped = true // a closed loop never fires; hand back an inert Timer
	}
	// Wake the event goroutine only if it is parked past this deadline
	// and nobody holds the token; a holder re-aims it on release.
	poke := l.sleeping && !l.busy && t.at < l.sleepAt
	l.mu.Unlock()
	if poke {
		l.poke()
	}
	return t
}

// Post runs fn on the loop's executor as soon as possible, after due
// timers and without displacing other lanes' queued work — the hand-off
// used by application goroutines to enter the serial executor. Post never
// runs fn on the caller. Work posted after the loop closed is silently
// dropped; callers that must know use a Lane or Do.
func (l *Loop) Post(fn func()) { l.defLane.Post(fn) }

// Do runs fn on the loop's executor and waits for it to complete. On an
// idle loop the caller becomes the executor: fn runs on the calling
// goroutine, followed by the loop work it queued (a send flush it armed,
// say), with no goroutine switch. On a busy loop fn queues behind the
// pending work and the caller waits. Called from inside a callback (the
// caller already is the executor) it runs fn inline, even on a closed
// loop, so protocol callbacks may re-enter the API without deadlock.
// Otherwise Do returns false, without running fn, if the loop is closed.
func (l *Loop) Do(fn func()) bool {
	g := fastGoid()
	if g == l.owner.Load() {
		fn()
		return true
	}
	if l.runInline(fn, g) {
		return true
	}
	doneCh := make(chan struct{})
	if !l.defLane.Post(func() { fn(); close(doneCh) }) {
		return false
	}
	<-doneCh // an accepted post runs, even across Close
	return true
}

// Close stops the event goroutine. It refuses later posts, runs every
// lane callback it already accepted (Lane.Post's contract: true means fn
// runs), and exits; pending timers never run. Close is idempotent and
// returns once the goroutine has exited; calling it from inside a
// callback returns immediately (the loop drains and the goroutine exits
// right after the callback).
func (l *Loop) Close() {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if already {
		return
	}
	l.poke()
	if !l.onExecutor() {
		<-l.done
	}
}

// SetParker installs p as the loop's parking mechanism: every subsequent
// park of the event goroutine happens inside p.Park, and every poke
// (posts, schedules, close) routes through p.Wake. A loop parked on the
// internal channel at install time is woken so it re-parks through p.
// Install before the loop carries traffic; installing a second parker is
// not supported.
func (l *Loop) SetParker(p Parker) {
	l.parker.Store(&parkerBox{p})
	l.wakeSleeper()
}

func (l *Loop) poke() {
	if pb := l.parker.Load(); pb != nil {
		pb.p.Wake()
		return
	}
	l.wakeSleeper()
}

// wakeSleeper wakes an event goroutine parked without a Parker: on the
// timer file once the loop has one, else on the wake channel.
func (l *Loop) wakeSleeper() {
	if tf := l.tf.Load(); tf != nil {
		l.pokes.Add(1)
		tf.interrupt()
		return
	}
	l.wakeChannel()
}

func (l *Loop) wakeChannel() {
	l.pokes.Add(1)
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Lane is a connection-keyed FIFO queue into a shared loop. Callbacks
// posted to one lane run on the loop's executor in post order (the
// per-connection serial-ordering guarantee); the loop alternates between
// lanes, draining each lane's accumulated batch in turn. A Lane is safe
// for concurrent use by multiple posters.
type Lane struct {
	l      *Loop
	q      []func() // guarded by l.mu
	queued bool     // lane is in l.runq; guarded by l.mu
	// spare is touched only by the token holder (batch recycling); the
	// pad keeps it off the line producers dirty on every Post, so the
	// drain path's slice reuse never contends with concurrent posters.
	_     pad64
	spare []func() // drained slice recycled for the next batch; token holder only
}

// NewLane returns a fresh FIFO lane into the loop. Lanes are cheap: a
// connection allocates one for its lifetime and simply abandons it.
func (l *Loop) NewLane() *Lane { return &Lane{l: l} }

// Post queues fn behind the lane's earlier callbacks. It reports whether
// the loop accepted it; false means the loop has closed and fn will never
// run (the caller keeps ownership of anything fn was to consume).
func (ln *Lane) Post(fn func()) bool {
	l := ln.l
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	ln.q = append(ln.q, fn)
	if !ln.queued {
		ln.queued = true
		l.runq = append(l.runq, ln)
	}
	l.noteForeign()
	poke := l.sleeping && !l.busy
	l.mu.Unlock()
	if poke {
		l.poke()
	}
	return true
}

// TryRun is the non-blocking hand-off for a producer that owns its input,
// like a socket reader. On an idle loop it runs fn as the executor on the
// calling goroutine, then the loop work fn queued, and reports true. On a
// busy or closed loop it reports false without running fn; the caller
// then posts (false from Post means the loop closed). fn runs only when
// every lane is empty, so it keeps its place in the lane's FIFO order.
func (ln *Lane) TryRun(fn func()) bool { return ln.l.runInline(fn, fastGoid()) }

// Loop returns the loop this lane feeds.
func (ln *Lane) Loop() *Loop { return ln.l }

// runInline takes the executor token if the loop is idle, runs fn on the
// calling goroutine g, and hands the token back — in a defer, so a panic
// the caller recovers does not wedge the loop. Before it lets go, the
// caller drains the work fn queued (a send flush it armed, a zero-delay
// delivery timer), for as long as that is the only work there is: once
// another goroutine posts or schedules, or a timer pending before fn
// could be due, everything left goes to the event goroutine, so a caller
// never runs callbacks it did not cause. It reports false, without
// running fn, when the loop is busy or closed.
func (l *Loop) runInline(fn func(), g int64) bool {
	l.mu.Lock()
	if l.busy || l.closed || len(l.runq) > 0 || l.timerDue(l.Now()) {
		l.mu.Unlock()
		return false
	}
	l.busy, l.inline, l.foreign = true, true, false
	l.owner.Store(g)
	before := l.earliest // no timer pending now is due before this
	l.mu.Unlock()
	defer l.release()
	fn()
	l.mu.Lock()
	for i := 0; i < inlineSteps && !l.foreign && l.Now() < before && l.step(); i++ {
	}
	l.mu.Unlock()
	return true
}

// noteForeign records a post or schedule by a goroutine other than an
// inline token holder. mu held.
func (l *Loop) noteForeign() {
	if l.inline && !l.foreign {
		l.foreign = fastGoid() != l.owner.Load()
	}
}

// release hands an inline caller's token back. The parked event goroutine
// is re-aimed at the wheel's earliest deadline rather than woken, unless
// work is left for it: lane work the caller did not drain, a due timer, a
// close, or — on a Parker loop, whose sleep cannot be re-aimed — an
// earlier deadline.
func (l *Loop) release() {
	l.mu.Lock()
	if len(l.due) > 0 || l.drainLn != nil {
		l.restore()
	}
	l.busy, l.inline = false, false
	l.owner.Store(0)
	poke := l.sleeping && (l.closed || len(l.runq) > 0 || l.reaim())
	l.mu.Unlock()
	if poke {
		l.poke()
	}
}

// restore puts back what a batch interrupted by a panic did not run, for
// the event goroutine: a lane batch's unrun callbacks return to the front
// of their lane, and the wheel's visit window is rewound over a timer
// batch's still-linked entries. Only a caller that recovered a panic out
// of the work it drained gets here. mu held.
func (l *Loop) restore() {
	for _, t := range l.due {
		if t.slot >= 0 {
			l.wheel.lastTick = min(l.wheel.lastTick, tickOf(t.at))
		}
	}
	clear(l.due)
	l.due = l.due[:0]
	if ln := l.drainLn; ln != nil {
		var rest []func()
		for _, fn := range l.draining {
			if fn != nil {
				rest = append(rest, fn)
			}
		}
		ln.q = append(rest, ln.q...)
		if !ln.queued && len(ln.q) > 0 {
			ln.queued = true
			l.runq = append([]*Lane{ln}, l.runq...)
		}
	}
	l.draining, l.drainLn = nil, nil
}

// reaim points the parked event goroutine's sleep at the wheel's earliest
// deadline, and reports whether it must be woken instead. mu held.
func (l *Loop) reaim() bool {
	at := l.nextDeadline()
	if at == l.sleepAt {
		return false
	}
	now := l.Now()
	if at <= now {
		return true
	}
	if l.parker.Load() != nil {
		return at < l.sleepAt // a later deadline just wakes it early
	}
	l.sleepAt = at
	if l.aimSleep(at, now) {
		// The first deadline opened the timer file; the event goroutine
		// is still on the channel, and re-parks on the file.
		l.wakeChannel()
	}
	return false
}

// aimSleep arms the sleep for deadline at, or disarms it for noDeadline.
// On Linux the first deadline opens the loop's timer file, and aimSleep
// reports that it did: an event goroutine parked on the wake channel must
// then be poked there, to re-park on the file. A closed loop's timer file
// may be closed, so it is left alone. mu held.
func (l *Loop) aimSleep(at, now time.Duration) (opened bool) {
	if l.closed {
		return false
	}
	tf := l.tf.Load()
	if tf == nil && at != noDeadline && !l.tfFailed {
		tf = openTimerFile()
		l.tf.Store(tf)
		l.tfFailed, opened = tf == nil, tf != nil
	}
	switch {
	case tf != nil:
		tf.set(at, now)
	case at == noDeadline:
		l.sleep.Stop()
	default:
		l.sleep.Reset(at - now)
	}
	return opened
}

// unlink removes t from the wheel, marking earliest stale if it may have
// named t. mu held.
func (l *Loop) unlink(t *wentry) {
	l.wheel.unlink(t)
	if l.wheel.count == 0 {
		l.earliest, l.earliestStale = noDeadline, false
	} else if t.at == l.earliest {
		l.earliestStale = true
	}
}

// nextDeadline returns the wheel's earliest deadline (noDeadline when
// empty), scanning the wheel only when an unlink made the bound stale. mu
// held.
func (l *Loop) nextDeadline() time.Duration {
	if l.earliestStale {
		l.earliest, l.earliestStale = noDeadline, false
		if at, ok := l.wheel.next(); ok {
			l.earliest = at
		}
	}
	return l.earliest
}

// timerDue reports whether a timer is due at now. mu held.
func (l *Loop) timerDue(now time.Duration) bool {
	return l.earliest <= now && l.nextDeadline() <= now
}

// byDeadline orders a timer batch by (deadline, schedule sequence).
func byDeadline(a, b *wentry) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// step runs one unit of loop work for the token holder: every timer
// now due, in (deadline, seq) order — unlinking one at a time, so a
// callback can still Stop a later same-batch timer — or else one lane's
// accumulated batch. It reports whether it ran anything. Called and
// returns with mu held; callbacks run unlocked. A closed loop fires no
// timers.
func (l *Loop) step() bool {
	if now := l.Now(); !l.closed && l.timerDue(now) {
		due := l.wheel.collectDue(now, l.due[:0])
		slices.SortFunc(due, byDeadline)
		l.due = due
		for _, t := range due {
			if l.closed {
				break // the next step drains accepted lane work
			}
			// Re-validate: an earlier callback in this batch (or any
			// goroutine) may have stopped this timer while it waited.
			if t.stopped || t.slot < 0 {
				continue
			}
			l.unlink(t)
			l.mu.Unlock()
			t.fn()
			l.mu.Lock()
		}
		clear(due)
		l.due = due[:0]
		return true
	}
	if len(l.runq) == 0 {
		return false
	}
	lane := l.runq[0]
	copy(l.runq, l.runq[1:])
	l.runq[len(l.runq)-1] = nil
	l.runq = l.runq[:len(l.runq)-1]
	lane.queued = false
	batch := lane.q
	lane.q = lane.spare[:0]
	l.draining, l.drainLn = batch, lane
	l.mu.Unlock()
	for i, fn := range batch {
		batch[i] = nil
		fn()
	}
	lane.spare = batch
	l.mu.Lock()
	l.draining, l.drainLn = nil, nil
	return true
}

// run is the event goroutine. It takes the token whenever no caller holds
// it, steps until nothing is due and no lane has work, then hands the
// token back and parks until the next deadline or a poke. While a caller
// holds the token it parks with no deadline: the caller's release re-aims
// or pokes it. Once closed it fires no timers and exits when the accepted
// lane batches have run.
func (l *Loop) run(ready chan<- struct{}) {
	gid := fastGoid()
	l.markEventGoroutine()
	close(ready)
	defer close(l.done)
	for {
		l.mu.Lock()
		if l.busy {
			l.sleeping, l.sleepAt = true, noDeadline
			l.parkedPokes = l.pokes.Load()
			l.aimSleep(noDeadline, 0)
			l.mu.Unlock()
			l.park(-1)
			continue
		}
		l.sleeping = false
		l.busy = true
		l.owner.Store(gid)
		var at, now time.Duration
		for {
			for l.step() {
			}
			if l.closed {
				l.busy = false
				l.owner.Store(0)
				if tf := l.tf.Load(); tf != nil {
					tf.close()
				}
				l.mu.Unlock()
				return // every lane batch accepted before Close has run
			}
			if at, now = l.nextDeadline(), l.Now(); at > now {
				break
			}
		}
		l.busy = false
		l.owner.Store(0)
		l.sleeping, l.sleepAt = true, at
		l.parkedPokes = l.pokes.Load()
		wait := time.Duration(-1)
		if at != noDeadline {
			wait = at - now
		}
		if l.parker.Load() == nil {
			l.aimSleep(at, now)
		}
		l.mu.Unlock()
		l.park(wait)
	}
}

// park sleeps the event goroutine until a poke or its sleep timer (wait <
// 0: no deadline) — inside the Parker when one is installed: the poller
// (epoll_wait) delivers readiness events, lane posts through Signals,
// before returning, and the next iteration services them alongside
// timers. Without one it waits on the timer file once the loop has one,
// and on the wake channel and Go timer before that.
func (l *Loop) park(wait time.Duration) {
	if pb := l.parker.Load(); pb != nil {
		pb.p.Park(wait)
	} else if tf := l.tf.Load(); tf != nil {
		tf.wait()
	} else {
		select {
		case <-l.wake:
		case <-l.sleep.C:
		}
	}
	l.wakeups.Add(1)
}

// goid returns the current goroutine's id by parsing the first line of the
// stack header ("goroutine N [running]:"), where fastGoid has no getg
// stub. It is only consulted on the Do, TryRun and Close entry points and
// by posts made while an inline caller holds the token — a few hundred
// nanoseconds against the cost of the socket operations those calls wrap.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	// strip "goroutine "
	const prefix = "goroutine "
	if len(s) < len(prefix) {
		return -1
	}
	s = s[len(prefix):]
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	id, err := strconv.ParseInt(string(s[:i]), 10, 64)
	if err != nil {
		return -1
	}
	return id
}
