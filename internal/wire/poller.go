package wire

import "minion/internal/buf"

// Readiness-driven I/O (poll mode).
//
// Without a poller every connection burns two goroutines, one blocked in
// a socket read and one in a socket write. Poll mode removes both. Each
// loop of a Group owns a poller — an epoll instance on Linux
// (poller_linux.go), nothing elsewhere (poller_other.go keeps the
// package portable) — that the loop's own event goroutine parks in
// (rt.Parker): readiness events and lane posts share one parking
// mechanism, so an edge wakes the goroutine that will run the protocol
// work directly. Sockets are registered edge-triggered for both
// readability and writability; an edge raises the connection's
// rt.Signal, which coalesces into one lane post serviced on the next
// loop rotation.
//
// The I/O itself happens on the loop's executor: pollRead and pollFlush
// are the non-blocking drivers of the same receive path and send queue
// the reader/writer goroutine pair drives (reader.go, writer.go). A write that hits EAGAIN parks the connection —
// zero syscalls — until the kernel reports EPOLLOUT. The per-connection
// goroutine count is zero; a loop costs one goroutine (its event
// goroutine) no matter how many connections it serves. A socket the
// poller cannot take (no raw fd, registration refused) runs the
// reader/writer goroutine pair on the same loop instead.
//
// Edge-triggered correctness invariants, load-bearing and easy to break:
//
//   - Reads continue until EAGAIN or a short read (a short read proves
//     the socket buffer was emptied; data arriving later raises a fresh
//     edge because the previous event was already consumed). Once a
//     hangup edge was seen the shortcut is off: an already-arrived FIN
//     never re-edges, so the drain must reach the EOF itself.
//   - A read stopped early by the receive budget sets rStalled; no edge
//     will re-fire for the bytes still buffered in the kernel, so Read's
//     credit (creditRead) must re-raise the signal itself.
//   - A write that hit EAGAIN sets wParked and must not retry until the
//     EPOLLOUT edge clears it; WriteMsgBuf-driven service requests
//     short-circuit while parked.
//   - No syscall may touch the fd after cleanup: the fd number is
//     recycled by the kernel the moment the socket closes.

// pollTarget is anything a poller routes readiness edges to: wire
// connections (both directions) and sharded-accept listener sockets
// (read edges only — a new connection in the accept queue is a
// readability event). Edge methods are called from the poller's dispatch
// loop on the owning loop's event goroutine and must be cheap and
// non-blocking; raising a coalescing rt.Signal is the intended shape.
type pollTarget interface {
	// readEdge reports readability (EPOLLIN) or a hangup/error condition;
	// hup is true when the edge carried a hangup or error bit.
	readEdge(hup bool)
	// writeEdge reports writability (EPOLLOUT) or a hangup/error
	// condition that must unpark a parked writer.
	writeEdge()
}

// readEdge implements pollTarget: a readability or hangup edge raises the
// read-service signal. The sticky rHup mark disables the short-read drain
// shortcut — an already-arrived FIN never re-edges, so the drain must
// reach the EOF itself.
func (c *Conn) readEdge(hup bool) {
	if hup {
		c.rHup.Store(true)
	}
	c.rSig.Raise()
}

// writeEdge implements pollTarget: the kernel drained the socket buffer
// (or the connection died); unpark and push.
func (c *Conn) writeEdge() { c.woSig.Raise() }

// pollInit attaches c to loop poller p: extracts the raw fd, builds the
// three readiness signals, and registers the fd edge-triggered. It
// reports false (leaving c untouched) when the socket cannot be polled —
// the caller falls back to the reader/writer goroutine pair.
func (c *Conn) pollInit(p *poller) bool {
	fd, ok := rawFD(c.nc)
	if !ok {
		return false
	}
	c.fd = fd
	c.rSig = c.lane.NewSignal(c.pollRead)
	c.wSig = c.lane.NewSignal(c.pollWrite)
	c.woSig = c.lane.NewSignal(c.pollWritable)
	tok, ok := p.register(fd, c)
	if !ok {
		return false
	}
	c.pl, c.pollTok = p, tok
	return true
}

// pollReadPass bounds the bytes one pollRead service pulls before
// yielding the loop. Draining a whole receive budget in one pass would
// batch an entire window of work ahead of delivery — pinning hundreds of
// KiB of arenas per connection and starving loop-mates (and the peer's
// loop, which idles until our echoes flush) — so a busy socket is drained
// across several services, re-raising its own signal between them.
const pollReadPass = 2 * readChunk

// pollRead is the poll read driver, servicing a readability edge on the
// loop's executor: it drains the socket until EAGAIN, a short read, the
// receive budget, or the per-pass bound.
func (c *Conn) pollRead() {
	for passed := 0; !c.dead && c.rerr == nil && c.readRoom(); {
		if passed >= pollReadPass {
			// Pass bound: yield the loop and continue behind whatever
			// else queued. The kernel edge was consumed, so the
			// continuation must be self-raised.
			c.rSig.Raise()
			return
		}
		b := buf.Get(readChunk)
		space, err := faultReadSpace(b.Bytes())
		n, again := 0, false
		if err == nil {
			n, again, err = c.pollReadFd(space)
			c.io.tcpReadCalls.Add(1)
		} else if faultAgain(err) {
			// Injected spurious edge: the real edge was consumed, so the
			// retry must be self-raised.
			c.loop.Schedule(faultRetryDelay, func() { c.rSig.Raise() })
			err, again = nil, true
		}
		if n == 0 {
			b.Release()
			if !again {
				c.endRead(err) // EOF or a terminal socket error
			}
			return
		}
		c.chargeRead(n)
		c.deliver(b, n)
		passed += n
		if n < readChunk && !c.rHup.Load() {
			// Socket buffer emptied; the next arrival re-edges. With a
			// hangup pending the shortcut is unsound — a FIN that already
			// arrived never re-edges — so keep draining to the EOF. An
			// injected short read proves nothing about the socket buffer;
			// keep draining on the next service.
			if len(space) < readChunk {
				c.rSig.Raise()
			}
			return
		}
	}
}

// pollWrite services a WriteMsgBuf/Close request for the write side. A
// parked connection stays parked: the EPOLLOUT edge is the only event
// that may retry, so a stalled peer costs nothing per queued write.
func (c *Conn) pollWrite() {
	if !c.wParked {
		c.pollFlush()
	}
}

// pollWritable services an EPOLLOUT edge: the kernel drained the socket
// buffer, so unpark and push.
func (c *Conn) pollWritable() {
	c.wParked = false
	c.pollFlush()
}

// pollFlush is the poll write driver: non-blocking vectored writes on
// the loop's executor until the in-flight vector drains or the kernel
// pushes back, which parks the connection until EPOLLOUT.
func (c *Conn) pollFlush() {
	if c.dead || !c.takeBatch() {
		return
	}
	wrote := 0
	var err error
	for len(c.pend) > 0 && err == nil {
		n, again := 0, false
		if err = c.stageWrite(); err == nil {
			n, again, err = c.pollWritev(c.wvec)
		} else if faultAgain(err) {
			// Injected backpressure parks like the kernel's; the kernel
			// owes no edge for pressure it never applied, so a synthetic
			// EPOLLOUT follows after a beat.
			c.loop.Schedule(faultRetryDelay, func() { c.woSig.Raise() })
			err, again = nil, true
		}
		wrote += n
		c.consume(n)
		if again {
			c.wParked = true
			break
		}
	}
	c.settle(wrote, err)
}
