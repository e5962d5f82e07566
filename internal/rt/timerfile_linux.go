//go:build linux

package rt

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerFile is the Linux sleep of a loop without a Parker: a non-blocking
// CLOCK_MONOTONIC timerfd the event goroutine waits on through the runtime
// netpoller (RawConn.Read, no thread blocked), so a deadline fires on the
// kernel's hrtimer instead of a Go timer, which the runtime fires from
// epoll_wait's millisecond timeout. A poke sets the file's read deadline
// in the past, which readies the parked goroutine directly.
type timerFile struct {
	fd   int // owned by f; set and closed only under the loop's mu
	f    *os.File
	rc   syscall.RawConn
	at   time.Duration // the deadline armed, noDeadline when disarmed; mu held
	read func(uintptr) bool
	buf  [8]byte // expiry count, read and discarded
}

const clockMonotonic = 1

// itimerspec is the kernel's struct itimerspec.
type itimerspec struct {
	interval, value syscall.Timespec
}

// aLongTimeAgo is a read deadline already past: setting it interrupts the
// wait.
var aLongTimeAgo = time.Unix(1, 0)

// openTimerFile returns a disarmed timer file, or nil if the kernel or the
// runtime netpoller refuses one (the loop then sleeps on a Go timer).
func openTimerFile() *timerFile {
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil
	}
	t := &timerFile{fd: int(fd), f: os.NewFile(fd, "rt-timerfd"), at: noDeadline}
	if t.f.SetReadDeadline(time.Time{}) != nil { // not in the netpoller
		t.f.Close()
		return nil
	}
	rc, err := t.f.SyscallConn()
	if err != nil {
		t.f.Close()
		return nil
	}
	t.rc = rc
	t.read = func(fd uintptr) bool {
		for {
			_, err := syscall.Read(int(fd), t.buf[:])
			if err != syscall.EINTR {
				return err != syscall.EAGAIN // expired, or torn down
			}
		}
	}
	return t
}

// set re-aims the timer at deadline at (noDeadline disarms); now is the
// loop's clock. Re-aiming at the deadline already armed is free. Either
// way timerfd_settime discards an expiry nobody read. A deadline already
// due arms the shortest timeout, since a zero itimerspec would disarm.
// mu held, loop not closed.
func (t *timerFile) set(at, now time.Duration) {
	if at == t.at {
		return
	}
	t.at = at
	var spec itimerspec
	if at != noDeadline {
		spec.value = syscall.NsecToTimespec(max(int64(at-now), 1))
	}
	// Fails only once closed, which mu and l.closed rule out.
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait parks the calling goroutine until the timer expires or interrupt.
// An interrupt is consumed here, so the next wait blocks again; one that
// lands after an expiry makes the next wait return at once, which the
// loop treats as any spurious wake-up.
func (t *timerFile) wait() {
	if t.rc.Read(t.read) != nil {
		_ = t.f.SetReadDeadline(time.Time{}) // fails only once closed, when no wait follows
	}
}

// interrupt makes a concurrent or the next wait return. Safe from any
// goroutine, also after close.
func (t *timerFile) interrupt() {
	_ = t.f.SetReadDeadline(aLongTimeAgo) // fails only once closed, when nobody waits
}

// close releases the descriptor. mu held, and the event goroutine is not
// waiting.
func (t *timerFile) close() { t.f.Close() }
