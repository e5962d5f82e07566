package wire

import (
	"io"
	"net"

	"minion/internal/buf"
	"minion/internal/tcp"
)

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
// The I/O itself happens on the loop's event goroutine: non-blocking
// reads straight into pooled buffers (no hand-off copy, no reader
// goroutine), non-blocking vectored writes draining the same queue the
// writer goroutine uses. A write that hits EAGAIN parks the connection —
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
//   - A read stopped early by the receive-budget cap sets rStalled; no
//     edge will re-fire for the bytes still buffered in the kernel, so
//     Read's credit path must re-raise the signal itself.
//   - A write that hit EAGAIN sets wParked and must not retry until the
//     EPOLLOUT edge clears it; WriteMsgBuf-driven service requests
//     short-circuit while parked.
//   - No syscall may touch the fd after pollTeardown: the fd number is
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

// pollRead services a readability edge on the loop's executor: it drains
// the socket into pooled buffers until EAGAIN, a short read, the receive
// budget, or the per-pass bound, then fires OnReadable once for the
// batch.
func (c *Conn) pollRead() {
	if c.pollDead || c.rerr != nil {
		return
	}
	delivered := false
	eof := false
	passed := 0
	for {
		if c.rBudget >= c.cfg.RecvBufBytes {
			// Budget exhausted: stop pulling so kernel flow control
			// backpressures the peer. Read's credit path resumes us — the
			// consumed edge will never re-fire for these bytes.
			c.rStalled = true
			break
		}
		if passed >= pollReadPass {
			// Pass bound: yield the loop and continue behind whatever
			// else queued. The kernel edge was consumed, so the
			// continuation must be self-raised.
			c.rSig.Raise()
			break
		}
		b := buf.Get(readChunk)
		space := b.Bytes()
		capped := false
		if capN, ferr, ok := faultRead(len(space)); ok {
			if ferr != nil {
				b.Release()
				if faultAgain(ferr) {
					// Injected spurious edge: the real edge was consumed, so
					// the retry must be self-raised.
					c.loop.Schedule(faultRetryDelay, func() { c.rSig.Raise() })
					break
				}
				c.rerr = tcp.ErrClosed
				c.rdone.Do(func() { close(c.readerDone) })
				c.fireError(c.rerr)
				delivered = true
				break
			}
			space, capped = space[:capN], true
		}
		n, again, err := c.pollReadFd(space)
		c.io.tcpReadCalls.Add(1)
		if again {
			b.Release()
			break
		}
		if n > 0 {
			c.noteRead()
			chunk := b.RightSize(n)
			c.recvQ = append(c.recvQ, chunk)
			c.govCharge(n)
			c.rBudget += n
			passed += n
			delivered = true
			if n < readChunk && !c.rHup.Load() {
				if capped {
					// An injected short read proves nothing about the
					// socket buffer; keep draining on the next service.
					c.rSig.Raise()
				}
				// Socket buffer emptied; the next arrival re-edges. With a
				// hangup pending the shortcut is unsound — a FIN that
				// already arrived never re-edges — so keep draining to the
				// EOF.
				break
			}
			continue
		}
		b.Release()
		// EOF (clean peer close) or a terminal socket error: surface it
		// exactly like the reader goroutine does, and release Close's wait
		// on the receive side.
		if err == nil {
			c.rerr = io.EOF
			eof = true
		} else {
			// A hard read error is terminal both ways (only a graceful EOF
			// leaves the send side usable); report it now, not at teardown.
			c.rerr = tcp.ErrClosed
			c.fireError(c.rerr)
		}
		c.rdone.Do(func() { close(c.readerDone) })
		delivered = true
		break
	}
	if delivered && c.onReadable != nil {
		c.onReadable()
	}
	if eof && c.onEOF != nil {
		// After the batch's OnReadable: the framing layer has drained
		// every byte ahead of the FIN before the peer-close notification.
		c.onEOF()
	}
}

// pollCredit returns consumed bytes to the receive budget (poll mode's
// loop-confined counterpart of creditRead) and resumes a budget-stalled
// drain.
func (c *Conn) pollCredit(n int) {
	c.rBudget -= n
	if c.rStalled && c.rBudget < c.cfg.RecvBufBytes {
		c.rStalled = false
		c.rSig.Raise()
	}
}

// pollWrite services a WriteMsgBuf/Close request for the write side. A
// parked connection stays parked: the EPOLLOUT edge is the only event
// that may retry, so a stalled peer costs nothing per queued write.
func (c *Conn) pollWrite() {
	if c.pollDead || c.wParked {
		return
	}
	c.pollWriteBatch()
}

// pollWritable services an EPOLLOUT edge: the kernel drained the socket
// buffer, so unpark and push.
func (c *Conn) pollWritable() {
	if c.pollDead {
		return
	}
	c.wParked = false
	c.pollWriteBatch()
}

// pollWriteBatch moves queued buffers into the in-flight vector and
// drains it with non-blocking vectored writes until done or EAGAIN. It
// mirrors writeBatch's bookkeeping (same queue, same buffer-release
// discipline, same OnWritable and flush-point detection) with parking in
// place of deadlines. Runs only on the loop's executor.
func (c *Conn) pollWriteBatch() {
	c.wmu.Lock()
	if c.werr != nil {
		c.failWritesLocked()
		c.wmu.Unlock()
		c.writerFinish()
		return
	}
	for _, b := range c.wq {
		c.pend = append(c.pend, b.Bytes())
		c.pendOwned = append(c.pendOwned, b)
	}
	clearBufs(c.wq)
	c.wq = c.wq[:0]
	if len(c.pend) == 0 {
		finished := c.wclosed
		c.wmu.Unlock()
		if finished {
			c.writerFinish()
		}
		return
	}
	c.wmu.Unlock()

	var wrote int64
	var werr error
	for len(c.pend) > 0 {
		n, again, err := c.pollWritevFault()
		if n > 0 {
			wrote += int64(n)
			c.consumePend(n)
		}
		if again {
			c.wParked = true
			break
		}
		if err != nil {
			werr = err
			break
		}
	}
	c.io.tcpWriteBytes.Add(uint64(wrote))

	c.wmu.Lock()
	c.wqBytes -= int(wrote)
	c.govCharge(-int(wrote))
	died := werr != nil && c.werr == nil
	if died {
		c.werr = werr
		c.failWritesLocked()
	}
	c.noteWriteProgressLocked(c.wqBytes > 0 && c.werr == nil, wrote > 0)
	c.notifyWritableLocked()
	flushed := len(c.pend) == 0 && len(c.wq) == 0
	finished := c.werr != nil || (c.wclosed && flushed)
	c.wmu.Unlock()
	if died {
		// Terminal for the layers above; report now, not a linger later.
		// pollWriteBatch runs on the event loop, so the call is direct.
		c.fireError(werr)
	}
	if finished {
		c.writerFinish()
	}
}

// pollWritevFault interposes the fault seam on the poll path's vectored
// write. Pass-through costs one atomic load. An injected EAGAIN parks the
// connection like real kernel backpressure and self-raises a synthetic
// EPOLLOUT after a beat (the kernel owes no edge for pressure it never
// applied); a partial-write cap issues the real writev on a prefix of the
// in-flight vector, exercising consumePend's mid-buffer arithmetic.
func (c *Conn) pollWritevFault() (int, bool, error) {
	h := faultHooks.Load()
	if h == nil || h.Write == nil {
		return c.pollWritev()
	}
	size := 0
	for _, p := range c.pend {
		size += len(p)
	}
	capN, ferr, ok := faultWrite(size)
	if !ok {
		return c.pollWritev()
	}
	if ferr != nil {
		if faultAgain(ferr) {
			c.loop.Schedule(faultRetryDelay, func() { c.woSig.Raise() })
			return 0, true, nil
		}
		return 0, false, ferr
	}
	saved := c.pend
	pfx := make(net.Buffers, 0, len(saved))
	left := capN
	for _, p := range saved {
		if left <= 0 {
			break
		}
		if len(p) > left {
			pfx = append(pfx, p[:left])
			left = 0
			break
		}
		pfx = append(pfx, p)
		left -= len(p)
	}
	c.pend = pfx
	n, again, err := c.pollWritev()
	c.pend = saved
	return n, again, err
}

// consumePend advances the in-flight vector past n kernel-consumed bytes,
// releasing fully-written buffers (the poll-mode half of the "hold the
// reference until the kernel has the bytes" rule).
func (c *Conn) consumePend(n int) {
	consumed := 0
	for n > 0 && consumed < len(c.pend) {
		if n >= len(c.pend[consumed]) {
			n -= len(c.pend[consumed])
			consumed++
			continue
		}
		c.pend[consumed] = c.pend[consumed][n:]
		n = 0
	}
	if consumed == 0 {
		return
	}
	for i := 0; i < consumed; i++ {
		c.pendOwned[i].Release()
	}
	rest := copy(c.pend, c.pend[consumed:])
	clearBufs(c.pend[rest:])
	c.pend = c.pend[:rest]
	rest = copy(c.pendOwned, c.pendOwned[consumed:])
	clearBufs(c.pendOwned[rest:])
	c.pendOwned = c.pendOwned[:rest]
}

// pollAbortWrites fails everything still queued on the write side — the
// linger-expiry bound for a close against a stalled peer, where no
// kernel deadline exists to fail a parked writev. Runs on the loop.
func (c *Conn) pollAbortWrites() {
	if c.pollDead {
		return
	}
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = tcp.ErrClosed
	}
	c.failWritesLocked()
	c.notifyWritableLocked()
	c.wmu.Unlock()
	c.writerFinish()
}

// pollTeardown is the last fd-touching step of a poll-mode connection,
// run on the loop's executor (or inline once the loop is gone): it
// unregisters the fd, fails anything still queued, and releases both of
// Close's waits. After it returns no code path issues a syscall on the
// fd, so the caller may close the socket without racing a reused
// descriptor.
func (c *Conn) pollTeardown() {
	if c.pollDead {
		return
	}
	c.pollDead = true
	c.watchStop.Store(true)
	c.pl.unregister(c.pollTok, c.fd)
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = tcp.ErrClosed
	}
	c.failWritesLocked()
	c.wmu.Unlock()
	c.writerFinish()
	c.rdone.Do(func() { close(c.readerDone) })
	c.cleanupRecv()
}
