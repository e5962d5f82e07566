//go:build linux

package rt

import (
	"math/rand"
	"os"
	"slices"
	"syscall"
	"testing"
	"time"
)

// Tests of the Linux timer file: a loop's deadlines fire on a timerfd, not
// a Go timer, and the file lives exactly as long as a loop that needs it.

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// fdOpen reports whether descriptor fd is open.
func fdOpen(fd int) bool {
	_, _, e := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFD, 0)
	return e == 0
}

// waitTimerFile waits until l has opened its timer file.
func waitTimerFile(t *testing.T, l *Loop) *timerFile {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if tf := l.tf.Load(); tf != nil {
			return tf
		}
	}
	t.Fatal("a pending deadline opened no timer file")
	return nil
}

// timerLateness chains n timers on l, each due 1–3 ms after the previous
// one fired, and returns the p50 of how late each fired.
func timerLateness(l *Loop, n int) time.Duration {
	rng := rand.New(rand.NewSource(1))
	late := make([]time.Duration, 0, n)
	done := make(chan struct{})
	var next func()
	next = func() {
		d := time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Millisecond)))
		at := l.Now() + d
		l.Schedule(d, func() {
			late = append(late, l.Now()-at)
			if len(late) == n {
				close(done)
				return
			}
			next()
		})
	}
	l.Do(next)
	<-done
	slices.Sort(late)
	return late[len(late)/2]
}

// TestTimerLatenessUnpolled: a loop without a Parker fires its timers on
// the timer file, tens of microseconds after they are due rather than the
// half millisecond a Go timer averages.
func TestTimerLatenessUnpolled(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	p50 := timerLateness(l, 1000)
	t.Logf("p50 lateness %v over 1000 timers at 1-3 ms", p50)
	if p50 > 150*time.Microsecond {
		t.Fatalf("p50 lateness %v, want <= 150µs", p50)
	}
}

// TestTimerFileOnlyOnceATimerIsPending: a loop that never schedules a
// timer parks on its channel and opens no timer file; its first pending
// deadline opens one, and the goroutine parks on it from then on.
func TestTimerFileOnlyOnceATimerIsPending(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	for i := 0; i < 100; i++ {
		l.Do(func() {})
		l.Post(func() {})
	}
	waitParked(t, l)
	if l.tf.Load() != nil {
		t.Fatal("a loop with no timers opened a timer file")
	}
	l.Schedule(time.Hour, func() {})
	waitTimerFile(t, l)
}

// TestTimerFileLifetime: 500 loops that each park on a timer file and
// close leave the descriptor count where it started, and a closed loop's
// file is closed by the time Close returns.
func TestTimerFileLifetime(t *testing.T) {
	base := openFDs(t)
	for i := 0; i < 500; i++ {
		l := NewLoop()
		l.Schedule(time.Hour, func() {})
		tf := waitTimerFile(t, l)
		l.Close()
		if fdOpen(tf.fd) {
			t.Fatalf("timer file %d still open after Close", tf.fd)
		}
	}
	if n := openFDs(t); n != base {
		t.Fatalf("open descriptors %d after 500 loops, started at %d", n, base)
	}
}

// TestTimerFileReaimAfterClose: a re-aim that reaches a closed loop does
// not touch its timer file, whose descriptor number may be reused.
func TestTimerFileReaimAfterClose(t *testing.T) {
	l := NewLoop()
	l.Schedule(time.Hour, func() {})
	tf := waitTimerFile(t, l)
	l.Close()
	at := tf.at
	l.mu.Lock()
	l.aimSleep(l.Now()+time.Millisecond, l.Now())
	l.mu.Unlock()
	if tf.at != at {
		t.Fatal("a closed loop re-aimed its timer file")
	}
}
