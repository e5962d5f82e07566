//go:build linux

package wire

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Linux poller: one epoll instance per event loop, with no goroutine of
// its own — the poller implements rt.Parker, so the loop's event
// goroutine itself sleeps on the epoll set. Readiness therefore wakes
// the goroutine that will run the protocol work directly (no hand-off
// hop), and lane posts from other goroutines wake the same sleep through
// the poller's wake pipe: kernel I/O events and runtime work share one
// parking mechanism.
//
// The sleep itself never blocks an OS thread in epoll_wait: an epoll fd
// is pollable, so the poller wraps it in an os.File and parks the
// goroutine in the Go runtime's own netpoller until the epoll set has
// events (RawConn.Read), fetching them with zero-timeout epoll_wait
// calls only. A thread blocked in a raw epoll_wait would strand its P in
// _Psyscall until sysmon retakes it — tens of microseconds per park
// during which no other goroutine runs, ruinous on small-core machines —
// while a netpoller park is an ordinary goroutine switch.
//
// Connections register edge-triggered for readability and writability at
// attach and are touched again only to unregister at teardown — the
// steady state issues zero epoll_ctl syscalls. Events carry a poller-
// assigned token (not the fd) so a descriptor number recycled by the
// kernel can never route a stale event to the wrong connection.

// Event bits, spelled locally: the syscall package declares EPOLLET as a
// negative untyped int (bit 31 of the kernel's uint32 mask), which does
// not combine cleanly with the others.
const (
	epIN    = 0x001
	epOUT   = 0x004
	epERR   = 0x008
	epHUP   = 0x010
	epRDHUP = 0x2000
	epET    = 1 << 31
)

// pollEventBuf bounds events fetched per epoll_wait. Edges re-queue, so a
// burst wider than the buffer just takes another (counted) wakeup.
const pollEventBuf = 128

// wakeTok is the reserved token of the poller's self-wake pipe.
const wakeTok = 0

type poller struct {
	epfd         int
	wakeR, wakeW int
	events       []syscall.EpollEvent // Park-only scratch
	targets      []pollTarget         // Park-only scratch, index-aligned with events
	epf          *os.File             // wraps epfd: netpoller-based parking
	eprc         syscall.RawConn
	io           *ioCounters // this loop's I/O stat shard

	// Pad between the event goroutine's Park-only scratch above and the
	// cross-goroutine atomics below: registering goroutines flip
	// wakePending on every Wake, and sharing that line with the scratch
	// slice headers would invalidate it under the dispatch loop.
	_ [64]byte

	// dispatching is true while Park delivers events on the event
	// goroutine: a Wake arriving then may skip the pipe write, because
	// the loop is awake and re-checks all work before parking again.
	dispatching atomic.Bool
	// wakePending coalesces pipe writes: one unconsumed byte is enough
	// to keep the epoll set readable until the next Park drains it.
	wakePending atomic.Bool

	_ [64]byte // atomics above, mutex-guarded registration table below

	mu     sync.Mutex
	conns  map[int32]pollTarget // registration token -> edge target
	next   int32                // last token issued (wakeTok reserved)
	closed bool
}

// newPoller builds a poller over a fresh epoll instance; ok is false if
// the kernel refuses (the group then runs without pollers). The caller
// installs it on its loop with rt.Loop.SetParker.
func newPoller() (*poller, bool) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, false
	}
	var pipefds [2]int
	if err := syscall.Pipe2(pipefds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, false
	}
	p := &poller{
		epfd:   epfd,
		wakeR:  pipefds[0],
		wakeW:  pipefds[1],
		events: make([]syscall.EpollEvent, pollEventBuf),
		conns:  make(map[int32]pollTarget),
		io:     nextIO(),
	}
	// The wake pipe is level-triggered: a pending byte keeps the epoll
	// set readable until Park drains it.
	ev := syscall.EpollEvent{Events: epIN, Fd: wakeTok}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(pipefds[0])
		syscall.Close(pipefds[1])
		return nil, false
	}
	// Hand the epoll fd itself to the Go netpoller (an epoll fd is
	// pollable: readable whenever its ready list is non-empty), so Park
	// blocks a goroutine, never a thread. From here on epf owns epfd.
	syscall.SetNonblock(epfd, true)
	p.epf = os.NewFile(uintptr(epfd), "wire-epoll")
	rc, err := p.epf.SyscallConn()
	if err != nil {
		p.epf.Close()
		syscall.Close(pipefds[0])
		syscall.Close(pipefds[1])
		return nil, false
	}
	p.eprc = rc
	return p, true
}

// Park implements rt.Parker: sleep — as an ordinary netpoller-parked
// goroutine — until the epoll set has events (socket readiness or a
// Wake), then deliver every fetched edge as a Signal raise. Runs only on
// the loop's event goroutine.
func (p *poller) Park(d time.Duration) {
	if d >= 0 {
		p.epf.SetReadDeadline(time.Now().Add(d))
	} else {
		p.epf.SetReadDeadline(time.Time{})
	}
	n := 0
	rerr := p.eprc.Read(func(fd uintptr) bool {
		// Zero-timeout fetch; an empty ready list parks the goroutine in
		// the runtime netpoller until the epoll fd reports readable.
		for {
			k, err := syscall.EpollWait(int(fd), p.events, 0)
			if err == syscall.EINTR {
				continue
			}
			if err != nil {
				return true // teardown: surface via zero events
			}
			n = k
			return n > 0
		}
	})
	if rerr != nil || n <= 0 {
		return // deadline, wake-up race, or teardown: the loop re-checks work
	}
	p.dispatching.Store(true)
	woken := false
	dispatched := 0
	// One token->conn resolution pass under a single lock (not one
	// lock round trip per event; register() calls from accepting
	// goroutines contend on p.mu).
	targets := p.targets[:0]
	p.mu.Lock()
	for i := 0; i < n; i++ {
		if p.events[i].Fd == wakeTok {
			woken = true
			targets = append(targets, nil)
			continue
		}
		targets = append(targets, p.conns[p.events[i].Fd])
	}
	p.mu.Unlock()
	p.targets = targets
	for i := 0; i < n; i++ {
		ev := &p.events[i]
		t := targets[i]
		if t == nil {
			continue // wake token, or unregistered between epoll_wait and dispatch
		}
		dispatched++
		// Error and hangup conditions surface through the read path (a
		// read returns the terminal state) and unpark the write path (a
		// write returns the error instead of parking forever).
		if ev.Events&(epIN|epRDHUP|epHUP|epERR) != 0 {
			t.readEdge(ev.Events&(epRDHUP|epHUP|epERR) != 0)
		}
		if ev.Events&(epOUT|epHUP|epERR) != 0 {
			t.writeEdge()
		}
	}
	if dispatched > 0 {
		p.io.pollWakeups.Add(1)
	}
	if woken {
		var drain [16]byte
		syscall.Read(p.wakeR, drain[:])
		p.wakePending.Store(false)
	}
	clearConns(targets)
	p.dispatching.Store(false)
}

func clearConns(s []pollTarget) {
	for i := range s {
		s[i] = nil
	}
}

// Wake implements rt.Parker: make a concurrent or future Park return.
// One unconsumed pipe byte suffices, and a Wake landing inside Park's
// own dispatch phase may be skipped outright — the event goroutine is
// awake and re-checks lanes and timers before it can park again.
func (p *poller) Wake() {
	if p.dispatching.Load() {
		return
	}
	if p.wakePending.CompareAndSwap(false, true) {
		var one = [1]byte{1}
		syscall.Write(p.wakeW, one[:])
	}
}

// register adds fd to the epoll set, edge-triggered for both directions,
// and returns the routing token. Registering both edges once means the
// steady state never re-arms interest: EPOLLOUT fires only on
// full-to-drained transitions, which only happen after a write actually
// hit EAGAIN.
func (p *poller) register(fd int, t pollTarget) (int32, bool) {
	return p.registerEvents(fd, t, epIN|epOUT|epRDHUP|epET)
}

// registerRead adds fd edge-triggered for readability only — the shape
// for sharded-accept listener sockets, where writability is meaningless
// and registering for it would deliver one spurious EPOLLOUT edge per
// listener at attach.
func (p *poller) registerRead(fd int, t pollTarget) (int32, bool) {
	return p.registerEvents(fd, t, epIN|epRDHUP|epET)
}

func (p *poller) registerEvents(fd int, t pollTarget, events uint32) (int32, bool) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return 0, false
	}
	p.next++
	if p.next == wakeTok {
		p.next++
	}
	tok := p.next
	p.conns[tok] = t
	p.mu.Unlock()
	ev := syscall.EpollEvent{Events: events, Fd: tok}
	if err := syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_ADD, fd, &ev); err != nil {
		p.mu.Lock()
		delete(p.conns, tok)
		p.mu.Unlock()
		return 0, false
	}
	return tok, true
}

// unregister removes the fd from the epoll set and the token from the
// routing map; events already fetched for the token are dropped on
// lookup.
func (p *poller) unregister(tok int32, fd int) {
	p.mu.Lock()
	delete(p.conns, tok)
	closed := p.closed
	p.mu.Unlock()
	if !closed {
		var ev syscall.EpollEvent
		syscall.EpollCtl(p.epfd, syscall.EPOLL_CTL_DEL, fd, &ev)
	}
}

// registrations reports the live fd count (tests: no leaks after churn).
func (p *poller) registrations() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// close releases the kernel objects. The caller (group shutdown)
// guarantees the owning loop has exited — no Park can be in flight — and
// every connection already unregistered.
func (p *poller) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.epf.Close()
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// rawFD extracts the socket's file descriptor. The fd stays owned by the
// net.Conn; cleanup stops all poll-mode use of it before the socket is
// closed.
func rawFD(nc net.Conn) (int, bool) {
	tcpc, ok := nc.(*net.TCPConn)
	if !ok {
		return 0, false
	}
	sc, err := tcpc.SyscallConn()
	if err != nil {
		return 0, false
	}
	fd := -1
	if err := sc.Control(func(f uintptr) { fd = int(f) }); err != nil || fd < 0 {
		return 0, false
	}
	return fd, true
}

// pollIO is the per-connection platform scratch: the iovec vector reused
// across writev calls.
type pollIO struct {
	iov []syscall.Iovec
}

// pollReadFd issues one non-blocking read into p. again reports EAGAIN
// (socket drained); a clean peer close reads as io.EOF.
func (c *Conn) pollReadFd(p []byte) (n int, again bool, err error) {
	for {
		n, err := syscall.Read(c.fd, p)
		if err == syscall.EINTR {
			continue
		}
		if err == syscall.EAGAIN {
			return 0, true, nil
		}
		if n < 0 {
			n = 0
		}
		if n == 0 && err == nil {
			err = io.EOF
		}
		return n, false, err
	}
}

// pollWritev issues one non-blocking vectored write over the head of v
// (at most writevMaxIOV entries, the kernel's IOV_MAX). again reports
// EAGAIN: nothing was taken and the caller must park until EPOLLOUT.
func (c *Conn) pollWritev(v net.Buffers) (n int, again bool, err error) {
	iov := c.pio.iov[:0]
	for _, bs := range v[:min(len(v), writevMaxIOV)] {
		if len(bs) == 0 {
			continue
		}
		var e syscall.Iovec
		e.Base = &bs[0]
		e.SetLen(len(bs))
		iov = append(iov, e)
	}
	c.pio.iov = iov
	if len(iov) == 0 {
		return 0, false, nil
	}
	for {
		r1, _, e := syscall.Syscall(syscall.SYS_WRITEV, uintptr(c.fd),
			uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
		if e == syscall.EINTR {
			continue
		}
		if e == syscall.EAGAIN {
			return 0, true, nil
		}
		if e != 0 {
			return 0, false, e
		}
		c.io.tcpWriteCalls.Add(1)
		return int(r1), false, nil
	}
}
