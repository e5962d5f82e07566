package rt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLoopTimerOrdering(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	l.Schedule(30*time.Millisecond, func() {
		mu.Lock()
		got = append(got, 3)
		mu.Unlock()
		close(done)
	})
	l.Schedule(10*time.Millisecond, func() { mu.Lock(); got = append(got, 1); mu.Unlock() })
	l.Schedule(20*time.Millisecond, func() { mu.Lock(); got = append(got, 2); mu.Unlock() })
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v, want [1 2 3]", got)
	}
}

func TestLoopEqualTimesRunInScheduleOrder(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	var got []int
	done := make(chan struct{})
	l.Do(func() {
		// Scheduling from inside the loop keeps Now() fixed relative to all
		// three, exercising the sequence tiebreaker.
		for i := 1; i <= 3; i++ {
			i := i
			l.Schedule(5*time.Millisecond, func() { got = append(got, i) })
		}
		l.Schedule(10*time.Millisecond, func() { close(done) })
	})
	<-done
	l.Do(func() {
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("order %v, want [1 2 3]", got)
		}
	})
}

func TestLoopTimerStop(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	var fired atomic.Bool
	tm := l.Schedule(20*time.Millisecond, func() { fired.Store(true) })
	if !tm.Pending() {
		t.Fatal("timer not pending after Schedule")
	}
	if !tm.Stop() {
		t.Fatal("Stop reported not pending")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported pending")
	}
	if tm.Pending() {
		t.Fatal("timer pending after Stop")
	}
	time.Sleep(40 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestLoopStopFromCallback(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	var fired atomic.Bool
	done := make(chan struct{})
	l.Do(func() {
		later := l.Schedule(30*time.Millisecond, func() { fired.Store(true) })
		l.Schedule(5*time.Millisecond, func() {
			later.Stop()
		})
		l.Schedule(50*time.Millisecond, func() { close(done) })
	})
	<-done
	if fired.Load() {
		t.Fatal("timer stopped by an earlier callback still fired")
	}
}

func TestLoopDoReentrant(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	ran := false
	ok := l.Do(func() {
		// Re-entering Do from the event goroutine must run inline, not
		// deadlock — the echo-server pattern (Send from OnMessage).
		l.Do(func() { ran = true })
	})
	if !ok || !ran {
		t.Fatalf("reentrant Do: ok=%v ran=%v", ok, ran)
	}
}

func TestLoopDoAfterClose(t *testing.T) {
	l := NewLoop()
	l.Close()
	l.Close() // idempotent
	if l.Do(func() {}) {
		t.Fatal("Do after Close reported success")
	}
}

// TestLoopCloseRunsAcceptedPosts pins Lane.Post's contract across Close:
// a post accepted while a callback holds the loop runs before Close
// returns, and a due timer still never fires.
func TestLoopCloseRunsAcceptedPosts(t *testing.T) {
	l := NewLoop()
	ln := l.NewLane()
	entered, release := make(chan struct{}), make(chan struct{})
	l.Post(func() { close(entered); <-release })
	<-entered
	var ran, fired atomic.Bool
	if !ln.Post(func() { ran.Store(true) }) {
		t.Fatal("Post refused on an open loop")
	}
	l.Schedule(0, func() { fired.Store(true) })
	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	for ln.Post(func() {}) { // spins until Close has latched
		runtime.Gosched()
	}
	close(release)
	<-closed
	if !ran.Load() {
		t.Fatal("post accepted before Close never ran")
	}
	if fired.Load() {
		t.Fatal("timer fired after Close")
	}
}

func TestLoopCloseFromCallback(t *testing.T) {
	l := NewLoop()
	done := make(chan struct{})
	l.Post(func() { l.Close(); close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close from callback deadlocked")
	}
	<-time.After(10 * time.Millisecond)
	if l.Do(func() {}) {
		t.Fatal("loop still running after Close from callback")
	}
}

func TestLoopConcurrentScheduleAndDo(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	const goroutines = 8
	const perG = 200
	var count atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					l.Do(func() { count.Add(1) })
				} else {
					l.Post(func() { count.Add(1) })
				}
			}
		}()
	}
	wg.Wait()
	// Posts are asynchronous; flush them with a final synchronous barrier.
	l.Do(func() {})
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() != goroutines*perG && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := count.Load(); got != goroutines*perG {
		t.Fatalf("ran %d callbacks, want %d", got, goroutines*perG)
	}
}

func TestLoopNowMonotonic(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	a := l.Now()
	time.Sleep(5 * time.Millisecond)
	if b := l.Now(); b <= a {
		t.Fatalf("Now went backwards: %v then %v", a, b)
	}
}
