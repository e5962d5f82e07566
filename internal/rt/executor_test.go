package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the executor token: on an idle loop a caller runs its hand-off
// itself, and otherwise the work queues exactly as it would for the event
// goroutine.

// waitParked waits until the event goroutine is parked with no executor
// running, no lane work pending and no poke in flight: the loop is idle.
// A poke is in flight from its send until the goroutine it woke has run
// and re-parked (pokes runs ahead of parkedPokes until then), so a
// goroutine that took its wake-up but has not run yet is not idle. The
// short hold guards wake-ups from the sleep timer, which no poke counts.
func waitParked(t *testing.T, l *Loop) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	idle := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		poked := l.parker.Load() == nil && (len(l.wake) > 0 || l.pokes.Load() != l.parkedPokes)
		return l.sleeping && !l.busy && len(l.runq) == 0 && !poked
	}
	for {
		w := l.wakeups.Load()
		if idle() {
			time.Sleep(2 * time.Millisecond)
			if idle() && l.wakeups.Load() == w {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("event goroutine never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// postQuiet queues fn on ln without poking the event goroutine: lane work
// pending while no executor has picked it up yet.
func postQuiet(ln *Lane, fn func()) {
	l := ln.l
	l.mu.Lock()
	ln.q = append(ln.q, fn)
	if !ln.queued {
		ln.queued = true
		l.runq = append(l.runq, ln)
	}
	l.mu.Unlock()
}

// scheduleQuiet links a timer due now without poking the event goroutine:
// a due timer that no executor has fired yet.
func scheduleQuiet(l *Loop, fn func()) {
	l.mu.Lock()
	t := &wentry{l: l, at: l.Now(), seq: l.seq, fn: fn, slot: -1}
	l.seq++
	l.wheel.insert(t)
	l.earliest = min(l.earliest, t.at)
	l.mu.Unlock()
}

func TestExecutorIdleDoRunsOnCaller(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	l.Schedule(time.Hour, func() {}) // a far-out timer is not a due one
	waitParked(t, l)
	w0 := l.wakeups.Load()
	caller := fastGoid()
	var ranOn int64
	if !l.Do(func() { ranOn = fastGoid() }) {
		t.Fatal("Do refused on an open loop")
	}
	if ranOn != caller {
		t.Fatalf("Do on an idle loop ran on goroutine %d, want the caller %d", ranOn, caller)
	}
	if l.onExecutor() {
		t.Fatal("caller still holds the executor token after Do returned")
	}
	if w := l.wakeups.Load(); w != w0 {
		t.Fatalf("inline Do woke the event goroutine %d times", w-w0)
	}
}

func TestExecutorTryRun(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	ln := l.NewLane()
	waitParked(t, l)
	caller := fastGoid()
	var ranOn int64
	if !ln.TryRun(func() { ranOn = fastGoid() }) || ranOn != caller {
		t.Fatalf("TryRun on an idle loop: ran on %d, want the caller %d", ranOn, caller)
	}
	// A busy loop refuses, and fn does not run.
	entered, release := make(chan struct{}), make(chan struct{})
	l.Post(func() { close(entered); <-release })
	<-entered
	ran := false
	if ln.TryRun(func() { ran = true }) || ran {
		t.Fatal("TryRun ran fn while another executor held the loop")
	}
	close(release)
	l.Close()
	if ln.TryRun(func() { ran = true }) || ran {
		t.Fatal("TryRun ran fn on a closed loop")
	}
}

// TestExecutorDoQueuesBehindLaneWork: lane work that is pending but not
// yet picked up keeps its place ahead of a Do, which then runs on the
// event goroutine rather than jumping the queue on the caller.
func TestExecutorDoQueuesBehindLaneWork(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	waitParked(t, l)
	var order []string // executor-confined
	postQuiet(l.NewLane(), func() { order = append(order, "lane") })
	caller := fastGoid()
	var ranOn int64
	l.Do(func() { order = append(order, "do"); ranOn = fastGoid() })
	if len(order) != 2 || order[0] != "lane" || order[1] != "do" {
		t.Fatalf("order %v, want [lane do]", order)
	}
	if ranOn == caller {
		t.Fatal("Do ran inline on the caller ahead of pending lane work")
	}
}

// TestExecutorDoQueuesBehindDueTimer: a due timer fires before a Do's fn.
func TestExecutorDoQueuesBehindDueTimer(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	waitParked(t, l)
	var order []string
	scheduleQuiet(l, func() { order = append(order, "timer") })
	l.Do(func() { order = append(order, "do") })
	if len(order) != 2 || order[0] != "timer" || order[1] != "do" {
		t.Fatalf("order %v, want [timer do]", order)
	}
}

// TestExecutorNestedDoScheduleClose: inline work re-enters the loop's API
// the way event-goroutine work does.
func TestExecutorNestedDoScheduleClose(t *testing.T) {
	l := NewLoop()
	waitParked(t, l)
	var order []int
	fired := make(chan time.Duration, 1)
	var at time.Duration
	l.Do(func() {
		order = append(order, 1)
		if !l.Do(func() { order = append(order, 2) }) {
			t.Error("nested Do refused")
		}
		order = append(order, 3)
		at = l.Now() + 10*time.Millisecond
		l.Schedule(10*time.Millisecond, func() { fired <- l.Now() })
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("nested Do order %v, want [1 2 3]", order)
	}
	select {
	case now := <-fired:
		if now < at {
			t.Fatalf("timer scheduled inline fired %v early", at-now)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer scheduled inline never fired")
	}

	// Close from inside inline work returns at once; what was accepted
	// still runs, and the loop then shuts down.
	waitParked(t, l)
	var ran atomic.Bool
	ln := l.NewLane()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		l.Do(func() {
			if !ln.Post(func() { ran.Store(true) }) {
				t.Error("Post refused before Close")
			}
			l.Close()
			if ln.Post(func() {}) {
				t.Error("Post accepted after Close")
			}
		})
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("Close from inline work deadlocked")
	}
	select {
	case <-l.done:
	case <-time.After(5 * time.Second):
		t.Fatal("event goroutine did not exit after Close from inline work")
	}
	if !ran.Load() {
		t.Fatal("post accepted before Close never ran")
	}
	if l.Do(func() {}) {
		t.Fatal("Do succeeded after Close")
	}
}

// TestExecutorDrainsOnlyOwnWork: after its hand-off a caller drains the
// work that hand-off queued — lane posts and zero-delay timers — but a
// timer pending from before, or another goroutine's post, is left to the
// event goroutine: a caller never runs callbacks it did not cause.
func TestExecutorDrainsOnlyOwnWork(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	waitParked(t, l)
	caller := fastGoid()
	ln := l.NewLane()
	var post, timer int64
	l.Do(func() {
		ln.Post(func() { post = fastGoid() })
		l.Schedule(0, func() { timer = fastGoid() })
	})
	if post != caller || timer != caller {
		t.Fatalf("work queued by the hand-off ran on %d (post) and %d (timer), want the caller %d", post, timer, caller)
	}

	waitParked(t, l)
	foreign := make(chan int64, 1)
	l.Do(func() {
		posted := make(chan struct{})
		go func() {
			ln.Post(func() { foreign <- fastGoid() })
			close(posted)
		}()
		<-posted
	})
	if g := <-foreign; g == caller {
		t.Fatal("another goroutine's post ran on the inline caller")
	}

	fired := make(chan int64, 1)
	l.Schedule(5*time.Millisecond, func() { fired <- fastGoid() })
	waitParked(t, l)
	l.Do(func() { time.Sleep(10 * time.Millisecond) })
	if g := <-fired; g == caller {
		t.Fatal("a timer pending before the hand-off fired on the inline caller")
	}
}

// TestExecutorTimerInline: a timer scheduled by inline work re-aims the
// parked event goroutine's sleep and fires on time; one stopped by inline
// work re-aims it back, so the event goroutine is never woken for it.
func TestExecutorTimerInline(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	waitParked(t, l)
	fired := make(chan time.Duration, 1)
	var at time.Duration
	l.Do(func() {
		at = l.Now() + 20*time.Millisecond
		l.Schedule(20*time.Millisecond, func() { fired <- l.Now() })
	})
	select {
	case now := <-fired:
		if now < at {
			t.Fatalf("fired %v early", at-now)
		}
		if late := now - at; late > time.Second {
			t.Fatalf("fired %v late", late)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer scheduled inline never fired")
	}

	waitParked(t, l)
	w0 := l.wakeups.Load()
	var tm Timer
	l.Do(func() { tm = l.Schedule(10*time.Millisecond, func() { t.Error("stopped timer fired") }) })
	l.Do(func() {
		if !tm.Stop() {
			t.Error("Stop reported not pending")
		}
	})
	time.Sleep(40 * time.Millisecond)
	if w := l.wakeups.Load(); w != w0 {
		t.Fatalf("a timer stopped inline woke the event goroutine %d times", w-w0)
	}
}

// fakeParker records Wake calls and each Park's timeout.
type fakeParker struct {
	wake   chan struct{}
	parked chan time.Duration
	wakes  atomic.Int64
}

func newFakeParker() *fakeParker {
	return &fakeParker{wake: make(chan struct{}, 1), parked: make(chan time.Duration, 64)}
}

func (p *fakeParker) Park(d time.Duration) {
	select {
	case p.parked <- d:
	default:
	}
	var timeout <-chan time.Time
	if d >= 0 {
		tm := time.NewTimer(d)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case <-p.wake:
	case <-timeout:
	}
}

func (p *fakeParker) Wake() {
	p.wakes.Add(1)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// awaitPark returns the timeout of the next Park call.
func (p *fakeParker) awaitPark(t *testing.T) time.Duration {
	t.Helper()
	select {
	case d := <-p.parked:
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("event goroutine never parked in the Parker")
		return 0
	}
}

// TestExecutorParkerWakeOnEarlierDeadline: a Parker's sleep cannot be
// re-aimed, so inline work that moves the deadline earlier Wakes it, and
// inline work that leaves the deadline where it is does not.
func TestExecutorParkerWakeOnEarlierDeadline(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	p := newFakeParker()
	l.SetParker(p)
	for d := p.awaitPark(t); d >= 0; d = p.awaitPark(t) {
	}
	waitParked(t, l)
	w0 := p.wakes.Load()
	l.Do(func() { l.Schedule(time.Hour, func() {}) })
	if p.wakes.Load() == w0 {
		t.Fatal("no Wake for a deadline earlier than an indefinite park")
	}
	if d := p.awaitPark(t); d <= 0 || d > time.Hour {
		t.Fatalf("re-parked for %v, want the hour timer's deadline", d)
	}
	waitParked(t, l)
	w1 := p.wakes.Load()
	l.Do(func() { l.Schedule(2*time.Hour, func() {}) })
	l.Do(func() {})
	if w := p.wakes.Load(); w != w1 {
		t.Fatalf("%d Wakes for inline work that left the deadline in place", w-w1)
	}
}

// TestExecutorRecoveredPanic: a panic out of inline work that the caller
// recovers releases the token; the loop stays usable, and queued work the
// interrupted batch did not reach still runs.
func TestExecutorRecoveredPanic(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	waitParked(t, l)
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not reach the caller")
			}
		}()
		l.Do(fn)
	}
	mustPanic(func() { panic("in the caller's own fn") })
	if l.onExecutor() {
		t.Fatal("token still held after a recovered panic")
	}
	ran := false
	if !l.Do(func() { ran = true }) || !ran {
		t.Fatal("loop unusable after a recovered panic")
	}

	// A panic in lane work the caller drains: the rest of the batch runs.
	waitParked(t, l)
	ln := l.NewLane()
	laneRan := make(chan struct{})
	mustPanic(func() {
		ln.Post(func() { panic("in drained lane work") })
		ln.Post(func() { close(laneRan) })
	})
	select {
	case <-laneRan:
	case <-time.After(5 * time.Second):
		t.Fatal("lane work behind a panicking callback never ran")
	}

	// A panic in a timer the caller fires: the later one still fires.
	waitParked(t, l)
	timerRan := make(chan struct{})
	mustPanic(func() {
		l.Schedule(0, func() { panic("in a drained timer") })
		l.Schedule(0, func() { close(timerRan) })
	})
	select {
	case <-timerRan:
	case <-time.After(5 * time.Second):
		t.Fatal("timer behind a panicking timer never fired")
	}
	ran = false
	if !l.Do(func() { ran = true }) || !ran {
		t.Fatal("loop unusable after panics in drained work")
	}
}

// TestExecutorStress: goroutines race Do, Post and Schedule on one loop,
// each callback bumping an unsynchronised counter. The token must
// serialise every callback (the race detector checks the happens-before
// chain) and lose none.
func TestExecutorStress(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	const goroutines = 8
	const perG = 300
	count := 0 // executor-confined
	var posted sync.WaitGroup
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ln := l.NewLane()
			for i := 0; i < perG; i++ {
				switch (g + i) % 3 {
				case 0:
					l.Do(func() { count++ })
				case 1:
					posted.Add(1)
					ln.Post(func() { count++; posted.Done() })
				default:
					posted.Add(1)
					l.Schedule(time.Duration(i%4)*100*time.Microsecond, func() { count++; posted.Done() })
				}
			}
		}(g)
	}
	wg.Wait()
	posted.Wait()
	var got int
	l.Do(func() { got = count })
	if got != goroutines*perG {
		t.Fatalf("counted %d callbacks, want %d", got, goroutines*perG)
	}
}
