package wire

import (
	"errors"
	"os"
	"time"

	"minion/internal/tcp"
)

// Without a poller, a wire connection's write side is a dedicated writer
// goroutine running writeLoop: it blocks for queued pooled buffers and
// drains them to the socket in vectored writes (writev), free to block in
// the kernel on a slow peer. (Polled connections write from the loop
// instead; see pollWrite.)
//
// writeBatch owns the vectored-write state and the buffer-release
// discipline: a pooled buffer's reference is held from WriteMsgBuf until
// the kernel has consumed all of its bytes (or the write side dies), so
// the zero-copy ownership conventions hold across partial writes.

// writevMaxIOV mirrors the kernel's IOV_MAX chunking inside
// net.Buffers.WriteTo: a batch of more entries costs one writev per chunk.
const writevMaxIOV = 1024

// writeBatch moves the queued buffers into the in-flight vector and
// issues one blocking vectored write. It reports whether the connection
// needs no further service.
//
// Only the writer goroutine touches the in-flight fields pend/pendOwned,
// so they are accessed without wmu.
func (c *Conn) writeBatch() (idle bool) {
	c.wmu.Lock()
	if c.werr != nil {
		c.failWritesLocked()
		c.wmu.Unlock()
		c.writerFinish()
		return true
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
		return true
	}
	c.wmu.Unlock()

	if h := faultHooks.Load(); h != nil && h.Write != nil {
		size := 0
		for _, p := range c.pend {
			size += len(p)
		}
		if _, ferr, ok := faultWrite(size); ok && ferr != nil {
			if faultAgain(ferr) {
				// Injected backpressure: hold the in-flight vector and
				// retry after a beat.
				time.Sleep(faultRetryDelay)
				return false
			}
			c.wmu.Lock()
			if c.werr == nil {
				c.werr = ferr
			}
			c.failWritesLocked()
			c.wmu.Unlock()
			c.writerFinish()
			c.postError(ferr)
			return true
		}
		// Partial-write caps are a poll-mode injection; the blocking
		// writer ignores them (net.Buffers.WriteTo offers no clean seam).
	}
	pre := len(c.pend)
	n, err := c.pend.WriteTo(c.nc)
	consumed := pre - len(c.pend)
	c.io.tcpWriteCalls.Add(uint64(1 + (pre-1)/writevMaxIOV))
	c.io.tcpWriteBufs.Add(uint64(consumed))
	c.io.tcpWriteBytes.Add(uint64(n))
	for i := 0; i < consumed; i++ {
		c.pendOwned[i].Release()
	}
	rest := copy(c.pendOwned, c.pendOwned[consumed:])
	clearBufs(c.pendOwned[rest:])
	c.pendOwned = c.pendOwned[:rest]

	c.wmu.Lock()
	c.wqBytes -= int(n)
	c.govCharge(-int(n))
	died := false
	if err != nil && c.werr == nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// Close's linger expired on a peer that stopped reading: the
			// queue can never flush. Fail it as the poll path's linger
			// abort does (pollAbortWrites) and let teardown report it.
			c.werr = tcp.ErrClosed
		} else {
			c.werr = err
			died = true
		}
		c.failWritesLocked()
	}
	c.noteWriteProgressLocked(c.wqBytes > 0 && c.werr == nil, n > 0)
	c.notifyWritableLocked()
	flushed := len(c.pend) == 0 && len(c.wq) == 0
	finished := c.werr != nil || (c.wclosed && flushed)
	c.wmu.Unlock()
	if died {
		// A dead write side is terminal for the layers above — their
		// queued datagrams can never send. Report it now rather than at
		// teardown, which may be a linger away.
		c.postError(err)
	}
	if finished {
		c.writerFinish()
		return true
	}
	return flushed
}

// failWritesLocked releases every buffer still queued or in flight after
// the write side died. Caller holds wmu.
func (c *Conn) failWritesLocked() {
	for _, b := range c.pendOwned {
		b.Release()
	}
	c.pendOwned = c.pendOwned[:0]
	c.pend = c.pend[:0]
	for _, b := range c.wq {
		b.Release()
	}
	clearBufs(c.wq)
	c.wq = c.wq[:0]
	c.govCharge(-c.wqBytes)
	c.wqBytes = 0
	c.wStall = 0
}

// notifyWritableLocked fires the OnWritable callback (onto the event
// loop) when a rejected sender armed the notification and the queue has
// drained to the low-water mark. Caller holds wmu.
func (c *Conn) notifyWritableLocked() {
	if c.wNotify && c.onWritable != nil && c.wqBytes <= c.cfg.WriteLowWater {
		c.wNotify = false
		fn := c.onWritable
		c.lane.Post(fn)
	}
}

// writerFinish marks the send side fully flushed or dead; Close waits on
// it before half-closing the socket.
func (c *Conn) writerFinish() {
	c.wdone.Do(func() { close(c.writerDone) })
}

// writeLoop is the writer goroutine of a connection without a poller: it
// blocks for queued pooled buffers and drains them to the socket in
// vectored batches.
func (c *Conn) writeLoop() {
	defer c.writerFinish()
	for {
		c.wmu.Lock()
		for len(c.wq) == 0 && len(c.pend) == 0 && !c.wclosed && c.werr == nil {
			c.wcond.Wait()
		}
		stop := c.werr != nil || (c.wclosed && len(c.wq) == 0 && len(c.pend) == 0)
		c.wmu.Unlock()
		if stop {
			c.writeBatch() // release any post-error stragglers
			return
		}
		if c.writeBatch() {
			c.wmu.Lock()
			dead := c.werr != nil || c.wclosed
			c.wmu.Unlock()
			if dead {
				return
			}
		}
	}
}

func clearBufs[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}
