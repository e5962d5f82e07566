package wire

import (
	"io"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// The receive path. The read driver — the reader goroutine (readLoop)
// or, on a polled loop, the loop's executor (pollRead) — reads the
// socket into pooled buffers while the receive budget has room
// (readRoom), charges each read to the budget (chargeRead) and hands the
// chunk to the loop by reference (deliver); Read's consumption credits
// the budget back (creditRead). endRead finishes the side. The budget
// bounds bytes read but not yet consumed: an application that stops
// consuming stops the socket reads, and kernel flow control
// backpressures the peer.

// readChunk is the pooled buffer size the read driver fills from the
// socket (one buf size class below the pool maximum).
const readChunk = 32 * 1024

// readRoom reports whether the read driver may read: the receive side is
// open and the budget below Config.RecvBufBytes. On a full budget it
// marks reading stalled, so that Read's credit resumes it: the reader
// goroutine waits here for that credit; the poll driver gets false and
// is re-raised by it.
func (c *Conn) readRoom() bool {
	c.rmu.Lock()
	for c.rBudget >= c.cfg.RecvBufBytes && !c.rclosed {
		c.rStalled = true
		if c.pl != nil {
			break
		}
		c.rcond.Wait()
	}
	ok := c.rBudget < c.cfg.RecvBufBytes && !c.rclosed
	c.rmu.Unlock()
	return ok
}

// chargeRead charges n bytes just read from the socket to the receive
// budget, before they are delivered.
func (c *Conn) chargeRead(n int) {
	c.rmu.Lock()
	c.rBudget += n
	c.rmu.Unlock()
}

// creditRead returns n bytes Read consumed to the receive budget and
// resumes a driver stalled on it. A stalled poll driver consumed its
// readiness edge without reading the bytes still in the kernel, so no
// edge will re-fire for them: the credit re-raises it.
func (c *Conn) creditRead(n int) {
	c.rmu.Lock()
	c.rBudget -= n
	resume := c.rStalled && c.rBudget < c.cfg.RecvBufBytes
	if resume {
		c.rStalled = false
	}
	c.rmu.Unlock()
	switch {
	case !resume:
	case c.pl != nil:
		c.rSig.Raise()
	default:
		c.rcond.Signal()
	}
}

// deliver appends n bytes read from the socket into b to the receive
// queue, on the loop. RightSize keeps the budget honest: a short read is
// copied into a right-sized arena instead of pinning the whole read
// buffer for n accounted bytes.
func (c *Conn) deliver(b *buf.Buffer, n int) {
	c.noteRead()
	c.recvQ = append(c.recvQ, b.RightSize(n))
	c.govCharge(n)
	if c.onReadable != nil {
		c.onReadable()
	}
}

// endRead finishes the receive side on the loop, behind the last
// delivery. A cause latched by Abort (the typed ErrTimeout, a chaos
// fault) overrides the error the socket read surfaced; otherwise
// anything but the peer's graceful io.EOF — a reset, a local hard close
// — maps to tcp.ErrClosed, and the framing layers see it after queued
// data drains.
func (c *Conn) endRead(err error) {
	if p := c.failCause.Load(); p != nil {
		err = *p
	} else if err != io.EOF {
		err = tcp.ErrClosed
	}
	if c.rerr == nil {
		c.rerr = err
	}
	if c.onReadable != nil {
		c.onReadable()
	}
	if err != io.EOF {
		// A hard read error is terminal in both directions — only a
		// peer's graceful EOF leaves the send side usable. Report it now;
		// cleanup's backstop would be a linger away.
		c.fireError(err)
	} else if c.onEOF != nil {
		// Graceful peer close: every byte ahead of the FIN has been
		// delivered. The hook is notification, not teardown.
		c.onEOF()
	}
	if c.pl != nil {
		// The poll driver reads nothing more once rerr is set; the reader
		// goroutine closes readerDone itself when it exits.
		c.rdone.Do(c.closeReader)
	}
}

func (c *Conn) closeReader() { close(c.readerDone) }

// readLoop is the goroutine read driver: blocking socket reads, each
// chunk posted into the loop through the connection's FIFO lane.
func (c *Conn) readLoop() {
	defer c.rdone.Do(c.closeReader)
	for c.readRoom() {
		b := buf.Get(readChunk)
		n, err := c.sockRead(b.Bytes())
		if faultAgain(err) {
			// Injected spurious wakeup: retry after a beat.
			b.Release()
			time.Sleep(faultRetryDelay)
			continue
		}
		if n > 0 {
			c.chargeRead(n)
			if !c.lane.Post(func() { c.deliver(b, n) }) {
				// Loop closed under us (group shutdown): nothing above
				// will consume again.
				b.Release()
				return
			}
		} else {
			b.Release()
		}
		if err != nil {
			c.lane.Post(func() { c.endRead(err) })
			return
		}
	}
}

// sockRead is the reader goroutine's blocking read, behind the read
// fault seam.
func (c *Conn) sockRead(p []byte) (int, error) {
	p, err := faultReadSpace(p)
	if err != nil {
		return 0, err
	}
	c.io.tcpReadCalls.Add(1)
	return c.nc.Read(p)
}
