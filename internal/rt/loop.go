package rt

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
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
//     Loop's clock (epoll_wait is millisecond-grained); timers then fire
//     up to one granule late, never early.
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
// like the simulator's event queue, and one event goroutine that executes
// every callback serially.
//
// The event goroutine is the serial executor that preserves the
// simulator's "no locks above the kernel" invariant in real deployments:
// protocol state machines attached to a Loop are only ever touched from
// that goroutine. External goroutines (socket readers, application
// threads) hand work in with Post, Do, or a Lane; Schedule and Stop are
// safe from any goroutine.
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
	goid     int64           // event goroutine id, for Do/Close reentrancy detection
	labelCtx context.Context // rt-loop=event profiler label for the event goroutine

	// The identity fields above are written once at startup and then only
	// read (by Do's fast path, from every posting goroutine); the mutex
	// region below is written constantly. Keep them on separate lines so
	// the read-mostly identity check never misses on a line the lock
	// traffic keeps invalidating.
	_ pad64

	mu      sync.Mutex
	wheel   wheel
	seq     uint64
	rng     *rand.Rand
	closed  bool
	runq    []*Lane // lanes with pending callbacks; each appears at most once
	defLane Lane    // lane used by Post and Do

	// Sleep state, so producers poke only a goroutine that is actually
	// parked (and, for timers, only with a deadline earlier than the one
	// it armed): a busy loop re-checks everything under mu before it
	// sleeps, so no wakeup is ever needed — or sent — while it runs.
	sleeping bool
	sleepAt  time.Duration // deadline the sleep was armed for; -1 = indefinite

	wake   chan struct{}             // 1-buffered poke for the event goroutine
	done   chan struct{}             // closed when the event goroutine exits
	parker atomic.Pointer[parkerBox] // optional external parking mechanism
}

// NewLoop starts a wall-clock runtime. The caller must Close it when done
// to release the event goroutine.
func NewLoop() *Loop {
	l := &Loop{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	l.defLane.l = l
	ready := make(chan struct{})
	go l.run(ready)
	<-ready
	return l
}

// Now returns the monotonic time since the loop started.
func (l *Loop) Now() time.Duration { return time.Since(l.start) }

// Rand returns the loop's random source. Like every Runtime's source it
// must only be used from the event goroutine (i.e. inside callbacks).
func (l *Loop) Rand() *rand.Rand { return l.rng }

// Schedule runs fn on the event goroutine after delay. Safe to call from
// any goroutine, including from inside a callback.
func (l *Loop) Schedule(delay time.Duration, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	l.mu.Lock()
	t := &wentry{l: l, at: l.Now() + delay, seq: l.seq, fn: fn, slot: -1}
	l.seq++
	if !l.closed {
		l.wheel.insert(t)
	} else {
		t.stopped = true // a closed loop never fires; hand back an inert Timer
	}
	// Wake the event goroutine only if it is parked past (or without)
	// this deadline; a running loop re-checks the wheel before sleeping.
	poke := l.sleeping && (l.sleepAt < 0 || t.at < l.sleepAt)
	l.mu.Unlock()
	if poke {
		l.poke()
	}
	return t
}

// Post runs fn on the event goroutine as soon as possible, after due
// timers and without displacing other lanes' queued work — the hand-off
// used by application goroutines to enter the serial executor. Work
// posted after the loop closed is silently dropped; callers that must
// know use a Lane or Do.
func (l *Loop) Post(fn func()) { l.defLane.Post(fn) }

// Do runs fn on the event goroutine and waits for it to complete. Called
// from inside a callback (already on the event goroutine) it runs fn
// inline, so protocol callbacks may re-enter the API without deadlock.
// Do returns false, without running fn, if the loop is closed.
func (l *Loop) Do(fn func()) bool {
	if l.onEventGoroutine() {
		fn()
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
// callback returns immediately (the goroutine drains and exits right
// after the callback).
func (l *Loop) Close() {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	if already {
		return
	}
	l.poke()
	if !l.onEventGoroutine() {
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
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

func (l *Loop) poke() {
	if pb := l.parker.Load(); pb != nil {
		pb.p.Wake()
		return
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// Lane is a connection-keyed FIFO queue into a shared loop. Callbacks
// posted to one lane run on the loop's event goroutine in post order (the
// per-connection serial-ordering guarantee); the loop alternates between
// lanes, draining each lane's accumulated batch in turn. A Lane is safe
// for concurrent use by multiple posters.
type Lane struct {
	l      *Loop
	q      []func() // guarded by l.mu
	queued bool     // lane is in l.runq; guarded by l.mu
	// spare is touched only by the event goroutine (batch recycling); the
	// pad keeps it off the line producers dirty on every Post, so the
	// drain path's slice reuse never contends with concurrent posters.
	_     pad64
	spare []func() // drained slice recycled for the next batch; event-goroutine only
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
	poke := l.sleeping
	l.mu.Unlock()
	if poke {
		l.poke()
	}
	return true
}

// Loop returns the loop this lane feeds.
func (ln *Lane) Loop() *Loop { return ln.l }

// run is the event goroutine. Each iteration: fire every timer now due
// (in (deadline, seq) order, unlinking one at a time so a callback can
// still Stop a later same-batch timer), then drain one lane's batch;
// otherwise sleep until the next deadline or a poke. Once closed it fires
// no timers and exits when the accepted lane batches have run.
func (l *Loop) run(ready chan<- struct{}) {
	l.goid = fastGoid()
	l.markEventGoroutine()
	close(ready)
	defer close(l.done)
	sleep := time.NewTimer(time.Hour)
	defer sleep.Stop()
	var due []*wentry
	for {
		l.mu.Lock()
		l.sleeping = false
		due = due[:0]
		if !l.closed { // a closed loop fires no timers
			due = l.wheel.collectDue(l.Now(), due)
		}
		if len(due) > 0 {
			sort.Slice(due, func(i, j int) bool {
				if due[i].at != due[j].at {
					return due[i].at < due[j].at
				}
				return due[i].seq < due[j].seq
			})
			for i, t := range due {
				if i > 0 {
					l.mu.Lock()
					if l.closed {
						l.mu.Unlock()
						break // the next iteration drains accepted lane work
					}
				}
				// Re-validate: an earlier callback in this batch (or any
				// goroutine) may have stopped this timer while it waited.
				if t.stopped || t.slot < 0 {
					l.mu.Unlock()
					continue
				}
				l.wheel.unlink(t)
				l.mu.Unlock()
				t.fn()
			}
			continue
		}

		var batch []func()
		var lane *Lane
		if len(l.runq) > 0 {
			lane = l.runq[0]
			copy(l.runq, l.runq[1:])
			l.runq[len(l.runq)-1] = nil
			l.runq = l.runq[:len(l.runq)-1]
			lane.queued = false
			batch, lane.q = lane.q, lane.spare[:0]
		}
		if batch == nil && l.closed {
			l.mu.Unlock()
			return // every lane batch accepted before Close has run
		}
		var wait time.Duration = -1
		if batch == nil {
			if at, ok := l.wheel.next(); ok {
				wait = at - l.Now()
				if wait < 0 {
					wait = 0
				}
				l.sleeping = wait > 0
				l.sleepAt = at
			} else {
				l.sleeping = true
				l.sleepAt = -1
			}
		}
		l.mu.Unlock()

		if batch != nil {
			for i, fn := range batch {
				fn()
				batch[i] = nil
			}
			lane.spare = batch
			continue
		}
		if wait == 0 {
			continue
		}
		if pb := l.parker.Load(); pb != nil {
			// External parking: the event goroutine sleeps in the parker
			// (epoll_wait), which delivers readiness events — lane posts
			// through Signals — before returning; the next iteration
			// services them alongside timers.
			pb.p.Park(wait)
			continue
		}
		if wait < 0 {
			<-l.wake
			continue
		}
		if !sleep.Stop() {
			select {
			case <-sleep.C:
			default:
			}
		}
		sleep.Reset(wait)
		select {
		case <-l.wake:
		case <-sleep.C:
		}
	}
}

// goid returns the current goroutine's id by parsing the first line of the
// stack header ("goroutine N [running]:"). It is only consulted on the Do
// and Close entry points — a few hundred nanoseconds against the cost of
// the socket operations those calls wrap.
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
