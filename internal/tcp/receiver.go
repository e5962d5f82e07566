package tcp

import (
	"io"

	"minion/internal/buf"
	"minion/internal/queue"
	"minion/internal/rt"
	"minion/internal/stream"
)

type inChunk struct {
	off  uint64 // stream offset of data[0]
	data []byte
	buf  *buf.Buffer // non-nil when data is a zero-copy view of a pooled arena
}

type receiver struct {
	asm *stream.Assembler // keyed by absolute sequence number, >= rcvNxt

	inQ      queue.FIFO[inChunk] // in-order data awaiting Read (plain mode)
	inQBytes int

	uQ queue.FIFO[UnorderedData] // uTCP delivery queue (unordered mode)

	pendingAckSegs  int
	delAckTimer     rt.Timer
	peerFinReceived bool
	peerFinSeq      uint64
	havePeerFin     bool

	lastSACKFirst stream.Extent // extent containing the most recent arrival
	lastAdvWnd    int           // window in the most recent ACK sent
}

// maybeWindowUpdate sends a window-update ACK when the application drains a
// previously (nearly) closed window — without this a zero-window sender
// would stall until its persist probe.
func (c *Conn) maybeWindowUpdate() {
	if c.state != StateEstablished && c.state != StateFinWait1 && c.state != StateFinWait2 {
		return
	}
	if c.lastAdvWnd < c.cfg.MSS && c.advertisedWindow() >= c.cfg.MSS {
		c.sendAck()
	}
}

func (c *Conn) initReceiver() {
	c.asm = stream.NewAssembler()
}

// advertisedWindow is the receive window: buffer capacity minus everything
// buffered and not yet consumed by the application. Crucially this is
// identical in plain and SO_UNORDERED modes — uTCP "does not increase its
// advertised receive window when it delivers data to the application
// out-of-order" (paper §4.1) because out-of-order segments are retained in
// the buffer until the cumulative point passes them.
func (c *Conn) advertisedWindow() int {
	w := c.cfg.RecvBufBytes - c.inQBytes - c.asm.BufferedBytes()
	if w < 0 {
		return 0
	}
	return w
}

// processData handles payload and FIN of an in-window segment.
func (c *Conn) processData(seg *Segment) {
	if seg.Flags.Has(FlagFIN) {
		finSeq := seg.Seq + uint64(len(seg.Payload))
		if !c.havePeerFin {
			c.havePeerFin = true
			c.peerFinSeq = finSeq
		}
	}

	payload := seg.Payload
	seq := seg.Seq
	segBuf := seg.Buf
	if segBuf != nil && (segBuf.Len() != len(payload) || (len(payload) > 0 && &segBuf.Bytes()[0] != &payload[0])) {
		// A middlebox (or test harness) rewrote Payload without dropping
		// the buffer; fall back to the copying paths.
		segBuf = nil
	}
	wasOutOfOrder := seq > c.rcvNxt
	holesBefore := len(c.asm.Fragments()) > 0
	advanced := false

	if len(payload) > 0 {
		// Reject data starting beyond any window we could have advertised
		// (in-flight segments admitted against an earlier advertisement
		// are accepted in full).
		if seq > c.rcvNxt+uint64(c.cfg.RecvBufBytes) {
			c.sendAck()
			return
		}
		end := seq + uint64(len(payload))
		if end <= c.rcvNxt {
			// Entirely duplicate data: immediate ACK.
			c.stats.DupSegsReceived++
			c.sendAck()
			return
		}
		if !wasOutOfOrder && !holesBefore {
			// Fast path: a clean in-order arrival with an empty reorder
			// buffer (the steady state). The newly contiguous region is
			// exactly this segment's new bytes, so deliver them straight
			// from the segment — a zero-copy refcounted slice when the
			// segment carries a pooled buffer — and never touch the
			// assembler.
			trim := int(c.rcvNxt - seq)
			chunk := inChunk{off: c.StreamOffsetOf(c.rcvNxt)}
			if segBuf != nil {
				chunk.buf = segBuf.Slice(trim, len(payload))
				chunk.data = chunk.buf.Bytes()
			} else {
				chunk.data = append([]byte(nil), payload[trim:]...)
			}
			if c.cfg.Unordered {
				c.uQ.Push(UnorderedData{Offset: chunk.off, Data: chunk.data, InOrder: true, buf: chunk.buf})
			} else {
				c.inQ.Push(chunk)
			}
			c.inQBytes += len(chunk.data)
			c.stats.BytesReceived += int64(len(chunk.data))
			c.rcvNxt = end
			advanced = true
		} else {
			if held, ok := c.asm.FragmentAt(max(seq, c.rcvNxt)); ok && held.End >= end {
				c.stats.DupSegsReceived++ // already SACKed
			}
			ext := c.asm.Insert(seq, payload)
			c.lastSACKFirst = ext

			// uTCP immediate delivery of out-of-order segments (paper §4.1):
			// the segment is surfaced now with its stream offset; it stays in
			// the reorder buffer so the in-order path redelivers it later
			// (at-least-once, like the Linux prototype).
			if c.cfg.Unordered && wasOutOfOrder {
				c.stats.DeliveredOOO++
				d := UnorderedData{Offset: c.StreamOffsetOf(seq), InOrder: false}
				if segBuf != nil {
					d.buf = segBuf.Slice(0, len(payload))
					d.Data = d.buf.Bytes()
				} else {
					d.Data = append([]byte(nil), payload...)
				}
				c.uQ.Push(d)
			}
		}
	}

	// Advance the cumulative point over any now-contiguous data (no-op
	// after the fast path, which leaves the assembler untouched).
	if newEnd := c.asm.ContiguousEnd(c.rcvNxt); newEnd > c.rcvNxt {
		data, ok := c.asm.Bytes(stream.Extent{Start: c.rcvNxt, End: newEnd})
		if ok {
			chunk := inChunk{off: c.StreamOffsetOf(c.rcvNxt), data: append([]byte(nil), data...)}
			if c.cfg.Unordered {
				c.uQ.Push(UnorderedData{Offset: chunk.off, Data: chunk.data, InOrder: true})
			} else {
				c.inQ.Push(chunk)
			}
			c.inQBytes += len(chunk.data)
			c.stats.BytesReceived += int64(len(chunk.data))
			c.rcvNxt = newEnd
			c.asm.Discard(c.rcvNxt)
			advanced = true
		}
	}

	// Consume the FIN once all data before it has arrived.
	if c.havePeerFin && !c.peerFinReceived && c.rcvNxt == c.peerFinSeq {
		c.rcvNxt++
		c.peerFinReceived = true
		advanced = true
		switch c.state {
		case StateEstablished:
			c.setState(StateCloseWait)
		case StateFinWait1:
			c.setState(StateClosing)
		}
	}

	// ACK generation: out-of-order arrivals and hole-filling arrivals are
	// acknowledged immediately (with SACK); clean in-order arrivals follow
	// the delayed-ACK discipline.
	if wasOutOfOrder || holesBefore || (c.havePeerFin && c.peerFinReceived) {
		c.sendAck()
	} else if len(payload) > 0 || advanced {
		c.scheduleAck()
	}

	if advanced || (c.cfg.Unordered && wasOutOfOrder && len(payload) > 0) {
		c.notifyReadable()
	}
}

// scheduleAck applies delayed-ACK: every second segment, or a timer.
func (c *Conn) scheduleAck() {
	if !c.cfg.DelayedAck {
		c.sendAck()
		return
	}
	c.pendingAckSegs++
	if c.pendingAckSegs >= 2 {
		c.sendAck()
		return
	}
	if c.delAckTimer == nil {
		c.delAckTimer = c.rtm.Schedule(c.cfg.DelAckTimeout, func() {
			c.delAckTimer = nil
			if c.pendingAckSegs > 0 {
				c.sendAck()
			}
		})
	}
}

// sendAck emits a pure ACK with current SACK blocks.
func (c *Conn) sendAck() {
	c.pendingAckSegs = 0
	c.stopTimer(&c.delAckTimer)
	c.stats.AcksSent++
	c.lastAdvWnd = c.advertisedWindow()
	c.emit(&Segment{
		Seq:    c.sndNxt,
		Ack:    c.rcvNxt,
		Flags:  FlagACK,
		Window: c.lastAdvWnd,
		SACK:   c.sackBlocks(),
	})
}

// ackedWithData resets ACK bookkeeping when an outgoing data segment
// piggybacks the acknowledgment.
func (c *Conn) ackedWithData() {
	c.pendingAckSegs = 0
	c.stopTimer(&c.delAckTimer)
}

// sackBlocks builds up to MaxSACKBlocks from the reorder buffer, most
// recent first (RFC 2018).
func (c *Conn) sackBlocks() []SACKBlock {
	frags := c.asm.Fragments()
	if len(frags) == 0 {
		return nil
	}
	blocks := make([]SACKBlock, 0, MaxSACKBlocks)
	if c.lastSACKFirst.Len() > 0 && c.lastSACKFirst.Start >= c.rcvNxt {
		blocks = append(blocks, SACKBlock{c.lastSACKFirst.Start, c.lastSACKFirst.End})
	}
	for _, f := range frags {
		if len(blocks) == MaxSACKBlocks {
			break
		}
		b := SACKBlock{f.Start, f.End}
		if len(blocks) > 0 && b == blocks[0] {
			continue
		}
		blocks = append(blocks, b)
	}
	return blocks
}

// Read returns in-order stream data (plain receive path). It returns
// io.EOF after the peer's FIN once all data is consumed, and ErrWouldBlock
// when no data is ready.
func (c *Conn) Read(p []byte) (int, error) {
	if c.cfg.Unordered {
		// In unordered mode the in-order data flows through ReadUnordered.
		return 0, ErrNotUnordered
	}
	n := 0
	for n < len(p) {
		chunk := c.inQ.Peek()
		if chunk == nil {
			break
		}
		m := copy(p[n:], chunk.data)
		n += m
		chunk.data = chunk.data[m:]
		chunk.off += uint64(m)
		if len(chunk.data) == 0 {
			if chunk.buf != nil {
				chunk.buf.Release()
			}
			c.inQ.Pop()
		}
	}
	if n > 0 {
		c.inQBytes -= n
		c.maybeWindowUpdate()
		return n, nil
	}
	if c.peerFinReceived {
		return 0, io.EOF
	}
	if c.err != nil {
		return 0, c.err
	}
	return 0, ErrWouldBlock
}

// ReadAvailable returns the bytes ready for Read.
func (c *Conn) ReadAvailable() int { return c.inQBytes }

// ReadUnordered pops the next uTCP delivery (paper §4.1): either an
// out-of-order segment surfaced immediately, or in-order stream data. Each
// delivery carries the metadata-header equivalent. Requires
// Config.Unordered. Returns io.EOF after the peer's FIN drains the queue.
func (c *Conn) ReadUnordered() (UnorderedData, error) {
	if !c.cfg.Unordered {
		return UnorderedData{}, ErrNotUnordered
	}
	d, ok := c.uQ.Pop()
	if !ok {
		if c.peerFinReceived {
			return UnorderedData{}, io.EOF
		}
		if c.err != nil {
			return UnorderedData{}, c.err
		}
		return UnorderedData{}, ErrWouldBlock
	}
	if d.InOrder {
		c.inQBytes -= len(d.Data)
		c.maybeWindowUpdate()
	}
	return d, nil
}

// UnorderedAvailable returns the number of queued uTCP deliveries.
func (c *Conn) UnorderedAvailable() int { return c.uQ.Len() }
