package wire

import "time"

// The send queue. WriteMsgBuf queues pooled buffers from any goroutine
// under wmu; the write driver — the writer goroutine (writeLoop) or, on
// a polled loop, the loop's executor (pollFlush) — moves them into the
// in-flight vector (takeBatch), hands that to vectored writes
// (stageWrite), returns each fully written buffer to the pool (consume)
// and settles the result (settle). A pooled buffer's reference is held
// from WriteMsgBuf until the kernel has consumed all of its bytes (or
// the write side dies), so the zero-copy ownership conventions hold
// across partial writes.

// writevMaxIOV mirrors the kernel's IOV_MAX chunking inside
// net.Buffers.WriteTo: a batch of more entries costs one writev per chunk.
const writevMaxIOV = 1024

// kickWriter asks the write driver to service the queue.
func (c *Conn) kickWriter() {
	if c.pl != nil {
		// Coalesced service request; a parked connection ignores it (the
		// EPOLLOUT edge is the only legal retry), so a stalled peer costs
		// nothing per queued write.
		c.wSig.Raise()
	} else {
		c.wcond.Signal()
	}
}

// takeBatch moves the queued buffers behind the in-flight vector and
// reports whether it holds bytes to write. With none, or with the write
// side dead, it settles at once: that fails a dead side's queue and
// finishes a dead or a closed and flushed side.
func (c *Conn) takeBatch() bool {
	c.wmu.Lock()
	if c.werr == nil {
		for _, b := range c.wq {
			c.pend = append(c.pend, b.Bytes())
			c.pendOwned = append(c.pendOwned, b)
		}
		clear(c.wq)
		c.wq = c.wq[:0]
	}
	work := c.werr == nil && len(c.pend) > 0
	c.wmu.Unlock()
	if !work {
		c.settle(0, nil)
	}
	return work
}

// stageWrite stages the next vectored write in wvec, a copy of pend (a
// write consumes its vector, and pend must stay for consume), then
// consults the write fault seam: an injected partial-write cap trims wvec
// to a prefix, and a non-nil error was injected in place of the write.
func (c *Conn) stageWrite() error {
	c.wvec = append(c.wvec[:0], c.pend...)
	if h := faultHooks.Load(); h == nil || h.Write == nil {
		return nil
	}
	size := 0
	for _, p := range c.wvec {
		size += len(p)
	}
	limit, err, ok := faultWrite(size)
	if !ok || err != nil {
		return err
	}
	for i, p := range c.wvec {
		if len(p) >= limit {
			c.wvec[i] = p[:limit]
			c.wvec = c.wvec[:i+1]
			break
		}
		limit -= len(p)
	}
	return nil
}

// consume advances the in-flight vector past n bytes the kernel took and
// releases every buffer now fully written.
func (c *Conn) consume(n int) {
	done := 0
	for ; done < len(c.pend) && n >= len(c.pend[done]); done++ {
		n -= len(c.pend[done])
		c.pendOwned[done].Release()
	}
	if done < len(c.pend) {
		c.pend[done] = c.pend[done][n:]
	}
	rest := copy(c.pend, c.pend[done:])
	copy(c.pendOwned, c.pendOwned[done:])
	clear(c.pend[rest:])
	clear(c.pendOwned[rest:])
	c.pend = c.pend[:rest]
	c.pendOwned = c.pendOwned[:rest]
}

// settle accounts a write service that moved n bytes and ended in err:
// the bytes leave the send budget, the governor and the stall clock, a
// write error fails the write side, and the OnWritable edge fires at low
// water. It finishes the write side once that is dead, or closed and
// flushed, and reports whether it did.
func (c *Conn) settle(n int, err error) bool {
	c.io.tcpWriteBytes.Add(uint64(n))
	c.wmu.Lock()
	c.wqBytes -= n
	c.govCharge(-n)
	died := err != nil && c.werr == nil
	if died {
		c.werr = err
	}
	if c.werr != nil {
		c.failWritesLocked()
	}
	c.noteWriteProgressLocked(c.wqBytes > 0, n > 0)
	c.notifyWritableLocked()
	finished := c.werr != nil || (c.wclosed && len(c.pend) == 0 && len(c.wq) == 0)
	c.wmu.Unlock()
	if died {
		// A dead write side is terminal for the layers above — their
		// queued datagrams can never send. Report it now rather than at
		// teardown, which may be a linger away.
		if c.pl != nil {
			c.fireError(err)
		} else {
			c.postError(err)
		}
	}
	if finished {
		c.writerFinish()
	}
	return finished
}

// failWrites latches err as the write side's failure and fails its
// queue. A polled connection's in-flight vector belongs to the loop, the
// caller, so the queue fails here. The writer goroutine may be blocked
// in the kernel with its vector: a past write deadline kicks it out, and
// it fails the queue itself.
func (c *Conn) failWrites(err error) {
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = err
	}
	if c.pl == nil {
		c.wmu.Unlock()
		c.wcond.Signal()
		c.nc.SetWriteDeadline(time.Unix(1, 0))
		return
	}
	c.failWritesLocked()
	c.wmu.Unlock()
	c.writerFinish()
}

// failWritesLocked releases every buffer still queued or in flight after
// the write side died, and fires an armed OnWritable edge so that a
// backpressured sender learns of it. Caller holds wmu and owns the
// in-flight vector.
func (c *Conn) failWritesLocked() {
	for _, b := range c.pendOwned {
		b.Release()
	}
	for _, b := range c.wq {
		b.Release()
	}
	clear(c.pendOwned)
	clear(c.pend)
	clear(c.wq)
	c.pendOwned, c.pend, c.wq = c.pendOwned[:0], c.pend[:0], c.wq[:0]
	c.govCharge(-c.wqBytes)
	c.wqBytes = 0
	c.wStall = 0
	c.notifyWritableLocked()
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

// writeLoop is the goroutine write driver: it blocks until the queue has
// work, then hands the in-flight vector to one blocking vectored write
// (net.Buffers.WriteTo, writev on a TCP socket), free to block in the
// kernel on a slow peer.
func (c *Conn) writeLoop() {
	defer c.writerFinish()
	for {
		c.wmu.Lock()
		for len(c.wq) == 0 && len(c.pend) == 0 && !c.wclosed && c.werr == nil {
			c.wcond.Wait()
		}
		c.wmu.Unlock()
		if !c.takeBatch() {
			return // failed, or closed and flushed
		}
		err := c.stageWrite()
		if faultAgain(err) {
			// Injected backpressure: hold the in-flight vector and retry
			// after a beat.
			time.Sleep(faultRetryDelay)
			continue
		}
		var n int64
		if err == nil {
			calls := 1 + (len(c.wvec)-1)/writevMaxIOV
			vec := c.wvec // WriteTo consumes c.wvec; keep its backing array
			n, err = c.wvec.WriteTo(c.nc)
			c.wvec = vec[:0]
			c.io.tcpWriteCalls.Add(uint64(calls))
		}
		c.consume(int(n))
		if c.settle(int(n), err) {
			return
		}
	}
}
