package tcp

import (
	"time"

	"minion/internal/buf"
	"minion/internal/rt"
)

// appWrite is one application write waiting in the send queue. In
// UnorderedSend mode each write is a unit for both priority insertion and
// segmentation (the paper's skbuff-per-write rule, §7): a segment never
// carries bytes from two writes unless CoalesceWrites packs whole writes.
// The payload lives in a pooled buffer owned by the queue entry; segments
// slice it zero-copy and the reference is dropped when the write is fully
// pulled into segments.
type appWrite struct {
	buf *buf.Buffer
	tag uint32
	off int // bytes already pulled into segments
}

func (w *appWrite) remaining() int { return w.buf.Len() - w.off }

// txSeg is a transmitted, not yet cumulatively acknowledged segment —
// one entry of the retransmission queue / SACK scoreboard. buf (when
// non-nil) backs data and holds the scoreboard's reference: it is released
// when the segment is cumulatively acked or the connection tears down.
type txSeg struct {
	seq     uint64
	data    []byte
	buf     *buf.Buffer
	fin     bool
	sentAt  time.Duration
	sacked  bool
	lost    bool // marked for retransmission (fast retransmit or RTO)
	retrans bool // has ever been retransmitted (Karn)
}

// release drops the scoreboard's payload reference.
func (t *txSeg) release() {
	if t.buf != nil {
		t.buf.Release()
		t.buf = nil
	}
}

func (t *txSeg) end() uint64 {
	e := t.seq + uint64(len(t.data))
	if t.fin {
		e++
	}
	return e
}

// inPipe reports whether the segment counts toward the in-flight estimate
// (RFC 6675 "pipe"): it does unless it is SACKed or is marked lost and not
// yet retransmitted.
func (t *txSeg) inPipe() bool { return !t.sacked && !t.lost }

type sender struct {
	// sendQ is head-indexed like the receiver queues: sqHead is the live
	// head, pops are O(1), and the array resets when the queue drains.
	sendQ      []*appWrite
	sqHead     int
	sendQBytes int

	txSegs []*txSeg

	// Congestion control (Reno). cwnd and ssthresh are in packets by
	// default (Linux skbuff counting) or bytes if ByteCountedCwnd.
	cwnd       float64
	ssthresh   float64
	inRecovery bool
	recover    uint64 // recovery point: sndNxt when loss was detected
	dupAcks    int

	// RTT estimation (RFC 6298).
	srtt, rttvar time.Duration
	rtoBackoff   int
	synRetries   int

	rtxTimer     rt.Timer
	persistTimer rt.Timer

	rack rackState // Config.RACK only

	nagleHold bool
}

func (c *Conn) initSender() {
	c.cwnd = float64(c.cfg.InitialCwnd)
	if c.cfg.ByteCountedCwnd {
		c.cwnd *= float64(c.cfg.MSS)
	}
	c.ssthresh = 1 << 30
}

// SendBufAvailable returns the bytes of send-queue space available.
func (c *Conn) SendBufAvailable() int {
	n := c.cfg.SendBufBytes - c.sendQBytes
	if n < 0 {
		return 0
	}
	return n
}

// SendQueueBytes returns the bytes queued but not yet transmitted.
func (c *Conn) SendQueueBytes() int { return c.sendQBytes }

// Write queues p for in-order transmission at default priority. It accepts
// at most SendBufAvailable() bytes and returns the count accepted; zero with
// ErrWouldBlock when the buffer is full. The data is copied.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.writableErr(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	n := len(p)
	if avail := c.SendBufAvailable(); n > avail {
		n = avail
	}
	if n == 0 {
		return 0, ErrWouldBlock
	}
	c.enqueueWrite(&appWrite{buf: buf.From(p[:n]), tag: TagDefault}, false)
	c.trySend()
	return n, nil
}

// WriteMsg queues one message as a single application write (one uTCP
// skbuff-boundary unit) with the given options. Unlike Write it is
// all-or-nothing: if the whole message does not fit in the send buffer it
// queues nothing and returns ErrWouldBlock. Requires UnorderedSend for
// priority semantics; without it the options are ignored and the message is
// appended FIFO.
func (c *Conn) WriteMsg(p []byte, opt WriteOptions) (int, error) {
	if err := c.writableErr(); err != nil {
		return 0, err
	}
	return c.WriteMsgBuf(buf.From(p), opt)
}

// WriteMsgBuf is WriteMsg for callers already inside the buffer discipline:
// it takes ownership of b (releasing it on error as well), so protocol
// layers that framed a message into a pooled buffer queue it without any
// copy. On an UnorderedSend connection b becomes one skbuff-boundary unit,
// exactly like WriteMsg.
func (c *Conn) WriteMsgBuf(b *buf.Buffer, opt WriteOptions) (int, error) {
	if err := c.writableErr(); err != nil {
		b.Release()
		return 0, err
	}
	if opt.Squash && c.cfg.UnorderedSend {
		c.squash(opt.Tag)
	}
	n := b.Len()
	if n == 0 {
		// A zero-length write is trivially complete; queueing it would
		// wedge the queue (the segmenter can never pull bytes from it).
		b.Release()
		return 0, nil
	}
	if n > c.SendBufAvailable() {
		b.Release()
		return 0, ErrWouldBlock
	}
	c.enqueueWrite(&appWrite{buf: b, tag: opt.Tag}, c.cfg.UnorderedSend)
	c.trySend()
	return n, nil
}

func (c *Conn) writableErr() error {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynReceived:
		if c.finQueued {
			return ErrClosed
		}
		return nil
	default:
		if c.err != nil {
			return c.err
		}
		return ErrClosed
	}
}

// enqueueWrite inserts w into the send queue. With priority insertion
// (paper §4.2) the write goes before the first queued write of strictly
// lower priority (numerically greater tag), but never before a write that
// has been transmitted in whole or in part — transmitted writes have left
// the queue, and a partially transmitted head (off > 0) is immovable.
func (c *Conn) enqueueWrite(w *appWrite, priority bool) {
	c.sendQBytes += w.buf.Len()
	if !priority {
		c.sendQ = append(c.sendQ, w)
		return
	}
	first := c.sqHead
	if first < len(c.sendQ) && c.sendQ[first].off > 0 {
		first++
	}
	pos := len(c.sendQ)
	for i := first; i < len(c.sendQ); i++ {
		if c.sendQ[i].tag > w.tag {
			pos = i
			break
		}
	}
	c.sendQ = append(c.sendQ, nil)
	copy(c.sendQ[pos+1:], c.sendQ[pos:])
	c.sendQ[pos] = w
}

// sendQLen returns the number of queued writes.
func (c *Conn) sendQLen() int { return len(c.sendQ) - c.sqHead }

// dequeueHead pops sendQ's head in O(1) by advancing the head cursor,
// compacting the backing array when the dead prefix dominates so a queue
// that never fully drains cannot grow without bound. This intentionally
// forks queue.FIFO's compaction (same threshold heuristic): the sender
// additionally needs indexed access into the live region for priority
// insertion and squash, which the FIFO deliberately does not expose.
func (c *Conn) dequeueHead() {
	c.sendQ[c.sqHead] = nil
	c.sqHead++
	switch {
	case c.sqHead == len(c.sendQ):
		c.sendQ, c.sqHead = c.sendQ[:0], 0
	case c.sqHead > 32 && c.sqHead > len(c.sendQ)/2:
		n := copy(c.sendQ, c.sendQ[c.sqHead:])
		clear(c.sendQ[n:])
		c.sendQ, c.sqHead = c.sendQ[:n], 0
	}
}

// squash removes queued, untransmitted writes with exactly tag.
func (c *Conn) squash(tag uint32) {
	keep := c.sendQ[c.sqHead:c.sqHead]
	for i := c.sqHead; i < len(c.sendQ); i++ {
		w := c.sendQ[i]
		if w.tag == tag && !(i == c.sqHead && w.off > 0) {
			c.sendQBytes -= w.buf.Len()
			w.buf.Release()
			continue
		}
		keep = append(keep, w)
	}
	for i := c.sqHead + len(keep); i < len(c.sendQ); i++ {
		c.sendQ[i] = nil
	}
	c.sendQ = c.sendQ[:c.sqHead+len(keep)]
	if c.sqHead == len(c.sendQ) {
		c.sendQ, c.sqHead = c.sendQ[:0], 0
	}
}

// pipe returns the in-flight estimate in CC units (packets or bytes).
func (c *Conn) pipe() float64 {
	var p float64
	for _, t := range c.txSegs {
		if t.inPipe() {
			if c.cfg.ByteCountedCwnd {
				p += float64(len(t.data))
			} else {
				p++
			}
		}
	}
	return p
}

func (c *Conn) ccUnit(bytes int) float64 {
	if c.cfg.ByteCountedCwnd {
		return float64(bytes)
	}
	return 1
}

// flightBytes returns transmitted-unacked payload bytes (for peer-window
// accounting).
func (c *Conn) flightBytes() int {
	if len(c.txSegs) == 0 {
		return 0
	}
	return int(c.sndNxt - c.sndUna)
}

// trySend is the transmission engine: retransmissions first (scoreboard
// segments marked lost), then new data, gated by congestion window, peer
// window, and Nagle. Finally the queued FIN, once the queue is empty.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateLastAck && c.state != StateClosing {
		return
	}
	for {
		if !c.cfg.DisableCC && c.pipe() >= c.cwnd {
			break
		}
		if c.retransmitNextLost() {
			continue
		}
		if !c.sendNewData() {
			break
		}
	}
	c.maybeSendFIN()
	c.maybePersist()
}

// retransmitNextLost retransmits the first scoreboard segment marked lost.
func (c *Conn) retransmitNextLost() bool {
	for _, t := range c.txSegs {
		if t.lost && !t.sacked {
			c.retransmit(t)
			return true
		}
	}
	return false
}

// retransmit sends scoreboard segment t again.
func (c *Conn) retransmit(t *txSeg) {
	t.lost = false
	t.retrans = true
	t.sentAt = c.rtm.Now()
	c.stats.SegsRetrans++
	c.stats.BytesRetrans += int64(len(t.data))
	fl := FlagACK
	if t.fin {
		fl |= FlagFIN
	}
	c.emit(&Segment{Seq: t.seq, Ack: c.rcvNxt, Flags: fl, Window: c.advertisedWindow(), Payload: t.data, Buf: t.buf})
	c.ackedWithData()
	c.armRTO()
}

// sendNewData builds and transmits one segment of new data, honoring write
// boundaries in UnorderedSend mode. Returns false when nothing was sent.
func (c *Conn) sendNewData() bool {
	if c.sendQLen() == 0 {
		return false
	}
	wndAvail := c.sndWnd - c.flightBytes()
	if wndAvail <= 0 {
		return false
	}
	limit := c.cfg.MSS
	if wndAvail < limit {
		limit = wndAvail
	}

	planned := c.plannedPayloadLen(limit)
	if planned == 0 {
		return false
	}
	// Nagle: hold small segments while data is outstanding.
	if !c.cfg.NoDelay && planned < c.cfg.MSS && len(c.txSegs) > 0 && !c.finQueued {
		return false
	}

	payload, pbuf := c.buildPayload(planned)
	t := &txSeg{seq: c.sndNxt, data: payload, buf: pbuf, sentAt: c.rtm.Now()}
	c.txSegs = append(c.txSegs, t)
	c.sndNxt += uint64(len(payload))
	c.stats.BytesSent += int64(len(payload))
	c.emit(&Segment{Seq: t.seq, Ack: c.rcvNxt, Flags: FlagACK, Window: c.advertisedWindow(), Payload: payload, Buf: pbuf})
	c.ackedWithData()
	c.armRTO()
	c.notifyWritable()
	return true
}

// buildPayload pulls exactly planned bytes off the send queue, where
// planned came from plannedPayloadLen and therefore already encodes the
// packing rules (plain TCP fills across write boundaries; UnorderedSend
// stops at the boundary; CoalesceWrites admits following whole writes).
//
// The returned buffer backs the returned payload slice and carries the
// scoreboard's reference. Two shapes:
//   - single-write segment (the planned bytes all come from the head
//     write, always the case in UnorderedSend mode): the payload is a
//     zero-copy view of the write's buffer — whole-buffer ownership
//     transfer when the write maps 1:1 onto the segment, a refcounted
//     slice otherwise;
//   - multi-write segment (plain TCP or CoalesceWrites packing): the
//     writes are packed into one fresh pooled buffer (the single copy on
//     this path).
func (c *Conn) buildPayload(planned int) ([]byte, *buf.Buffer) {
	w := c.sendQ[c.sqHead]
	if planned <= w.remaining() {
		var pb *buf.Buffer
		if w.off == 0 && planned == w.buf.Len() {
			pb = w.buf // segment == whole write: transfer ownership
		} else {
			pb = w.buf.Slice(w.off, w.off+planned)
		}
		payload := pb.Bytes()
		w.off += planned
		c.sendQBytes -= planned
		if w.remaining() == 0 {
			c.dequeueHead()
			if pb != w.buf {
				w.buf.Release()
			}
		}
		return payload, pb
	}
	// Multi-write packing: planned stops either at the byte limit or before
	// a write CoalesceWrites cannot admit whole, so this loop consumes every
	// write it touches fully except possibly the head.
	out := buf.Get(planned)
	n := 0
	for n < planned {
		w := c.sendQ[c.sqHead]
		take := w.remaining()
		if rem := planned - n; take > rem {
			take = rem
		}
		n += copy(out.Bytes()[n:], w.buf.Bytes()[w.off:w.off+take])
		w.off += take
		c.sendQBytes -= take
		if w.remaining() == 0 {
			w.buf.Release()
			c.dequeueHead()
		}
	}
	return out.Bytes(), out
}

// plannedPayloadLen computes, without consuming the queue, how many bytes
// buildPayload would pull given the same packing rules.
func (c *Conn) plannedPayloadLen(limit int) int {
	total := 0
	for _, w := range c.sendQ[c.sqHead:] {
		if total >= limit {
			break
		}
		take := w.remaining()
		if rem := limit - total; take > rem {
			take = rem
		}
		if c.cfg.UnorderedSend && total > 0 {
			if !c.cfg.CoalesceWrites || take < w.remaining() || w.off > 0 {
				break
			}
		}
		total += take
		if c.cfg.UnorderedSend && !c.cfg.CoalesceWrites {
			break
		}
	}
	return total
}

func (c *Conn) maybeSendFIN() {
	if !c.finQueued || c.finSent || c.sendQLen() > 0 {
		return
	}
	if !c.cfg.DisableCC && c.pipe() >= c.cwnd+1 {
		return
	}
	c.finSeq = c.sndNxt
	c.finSent = true
	t := &txSeg{seq: c.sndNxt, fin: true, sentAt: c.rtm.Now()}
	c.txSegs = append(c.txSegs, t)
	c.sndNxt++
	c.emit(&Segment{Seq: t.seq, Ack: c.rcvNxt, Flags: FlagACK | FlagFIN, Window: c.advertisedWindow()})
	c.ackedWithData()
	c.armRTO()
}

// maybePersist arms the zero-window probe timer when data waits on a closed
// peer window.
func (c *Conn) maybePersist() {
	if c.sndWnd > 0 || c.sendQLen() == 0 || c.persistTimer != nil || len(c.txSegs) > 0 {
		return
	}
	c.persistTimer = c.rtm.Schedule(c.rto(), func() {
		c.persistTimer = nil
		if c.sndWnd == 0 && c.sendQLen() > 0 && c.state == StateEstablished {
			// One-byte window probe, sent as a real transmission so the
			// byte is consumed exactly once.
			w := c.sendQ[c.sqHead]
			pb := w.buf.Slice(w.off, w.off+1)
			payload := pb.Bytes()
			w.off++
			c.sendQBytes--
			if w.remaining() == 0 {
				w.buf.Release()
				c.dequeueHead()
			}
			t := &txSeg{seq: c.sndNxt, data: payload, buf: pb, sentAt: c.rtm.Now()}
			c.txSegs = append(c.txSegs, t)
			c.sndNxt++
			c.stats.BytesSent++
			c.emit(&Segment{Seq: t.seq, Ack: c.rcvNxt, Flags: FlagACK, Window: c.advertisedWindow(), Payload: payload, Buf: pb})
			c.armRTO()
			c.maybePersist()
		}
	})
}

// processAck handles the acknowledgment fields of an incoming segment:
// cumulative ack, SACK scoreboard, dupack counting, loss marking,
// congestion control, and RTT sampling.
func (c *Conn) processAck(seg *Segment) {
	ack := seg.Ack
	if ack > c.sndNxt {
		return // acks data never sent; ignore
	}
	oldUna := c.sndUna
	c.sndWnd = seg.Window
	if c.persistTimer != nil && seg.Window > 0 {
		c.stopTimer(&c.persistTimer)
	}

	// Update SACK scoreboard.
	for _, b := range seg.SACK {
		for _, t := range c.txSegs {
			if t.seq >= b.Start && t.end() <= b.End {
				if c.cfg.RACK && !t.sacked {
					c.rackDelivered(t)
				}
				t.sacked = true
				t.lost = false
			}
		}
	}

	if ack > c.sndUna {
		c.sndUna = ack
		c.handleNewAck(ack, oldUna)
	} else if ack == c.sndUna && len(seg.Payload) == 0 && !seg.Flags.Has(FlagSYN|FlagFIN) && c.sndNxt > c.sndUna {
		c.handleDupAck()
	}

	c.detectSACKLoss()
	if c.cfg.RACK {
		c.rackDetectLoss()
	}
}

func (c *Conn) handleNewAck(ack, oldUna uint64) {
	// Drop fully acked scoreboard entries; sample RTT from the newest
	// never-retransmitted one (Karn's algorithm).
	var ackedUnits float64
	var rttSample time.Duration = -1
	keep := c.txSegs[:0]
	for _, t := range c.txSegs {
		if t.end() <= ack {
			ackedUnits += c.ccUnit(len(t.data))
			if c.cfg.RACK && !t.sacked {
				c.rackDelivered(t)
			}
			if !t.retrans {
				rttSample = c.rtm.Now() - t.sentAt
			}
			t.release()
			continue
		}
		keep = append(keep, t)
	}
	c.txSegs = keep
	if rttSample >= 0 {
		c.updateRTT(rttSample)
	}
	c.rtoBackoff = 0
	c.dupAcks = 0

	if c.inRecovery {
		if ack >= c.recover {
			c.inRecovery = false
			c.cwnd = c.ssthresh
		} else if !c.cfg.RACK {
			// Partial ack: the next hole is lost too (NewReno). RACK
			// needs no such guess: it marks the hole by send time.
			if len(c.txSegs) > 0 && !c.txSegs[0].sacked {
				c.txSegs[0].lost = true
			}
		}
	} else if !c.cfg.DisableCC {
		if c.cwnd < c.ssthresh {
			c.cwnd += ackedUnits // slow start
		} else {
			unit := 1.0
			if c.cfg.ByteCountedCwnd {
				unit = float64(c.cfg.MSS)
			}
			c.cwnd += ackedUnits * unit / c.cwnd // congestion avoidance
		}
	}

	if c.cfg.RACK {
		c.rackNewAck(ack)
	}
	if len(c.txSegs) == 0 {
		c.stopRTO()
	} else {
		c.restartRTO()
	}
	c.notifyWritable()
}

func (c *Conn) handleDupAck() {
	c.stats.DupAcksReceived++
	c.dupAcks++
	if c.inRecovery || c.cfg.DisableCC {
		return
	}
	if c.dupAcks >= 3 {
		c.enterRecovery()
	}
}

// detectSACKLoss applies the RFC 6675 heuristic: a segment is lost when
// three segments above it have been SACKed.
func (c *Conn) detectSACKLoss() {
	if c.cfg.DisableCC {
		return
	}
	sackedAbove := 0
	for i := len(c.txSegs) - 1; i >= 0; i-- {
		if c.txSegs[i].sacked {
			sackedAbove++
			continue
		}
		if sackedAbove >= 3 && !c.txSegs[i].lost && !c.txSegs[i].retrans {
			if !c.inRecovery {
				c.enterRecovery()
			}
			c.txSegs[i].lost = true
		}
	}
}

func (c *Conn) enterRecovery() {
	c.startRecovery()
	// Mark the first unsacked segment lost so it is retransmitted.
	for _, t := range c.txSegs {
		if !t.sacked {
			t.lost = true
			break
		}
	}
	c.trySend()
}

// startRecovery opens a recovery episode and halves the window.
func (c *Conn) startRecovery() {
	c.inRecovery = true
	c.recover = c.sndNxt
	c.stats.FastRecoveries++
	c.ssthresh = c.halfPipe()
	c.cwnd = c.ssthresh
}

// halfPipe is the post-loss slow-start threshold: half the in-flight
// estimate, at least two segments.
func (c *Conn) halfPipe() float64 {
	half := c.pipe() / 2
	min := 2.0
	if c.cfg.ByteCountedCwnd {
		min = 2 * float64(c.cfg.MSS)
	}
	if half < min {
		half = min
	}
	return half
}

func (c *Conn) updateRTT(sample time.Duration) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
		return
	}
	d := c.srtt - sample
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + sample) / 8
}

// SRTT returns the smoothed RTT estimate (zero before the first sample).
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Cwnd returns the congestion window in its accounting unit.
func (c *Conn) Cwnd() float64 { return c.cwnd }

func (c *Conn) rto() time.Duration {
	rto := c.cfg.MinRTO
	if c.srtt > 0 {
		rto = c.srtt + 4*c.rttvar
		if rto < c.cfg.MinRTO {
			rto = c.cfg.MinRTO
		}
	} else {
		rto = time.Second // RFC 6298 initial RTO
	}
	for i := 0; i < c.rtoBackoff; i++ {
		rto *= 2
		if rto > c.cfg.MaxRTO {
			return c.cfg.MaxRTO
		}
	}
	if rto > c.cfg.MaxRTO {
		rto = c.cfg.MaxRTO
	}
	return rto
}

// armRTO runs after every transmission. By default it restarts the
// timer; in RACK mode it starts it only if it is not running (RFC 6298
// §5.1) and re-arms the tail loss probe.
func (c *Conn) armRTO() {
	if c.cfg.RACK {
		c.rackOnTransmit()
		return
	}
	c.restartRTO()
}

// restartRTO restarts the timer from now: on an ACK of new data (RFC 6298
// §5.3) and after a timeout.
func (c *Conn) restartRTO() {
	if c.cfg.RACK {
		c.rackRestart()
		return
	}
	c.stopTimer(&c.rtxTimer)
	c.rtxTimer = c.rtm.Schedule(c.rto(), c.rtoFn)
}

// stopRTO disarms retransmission timing once nothing is outstanding.
func (c *Conn) stopRTO() {
	if c.cfg.RACK {
		c.rack.rtoAt, c.rack.ptoAt, c.rack.reoAt = 0, 0, 0
	}
	c.stopTimer(&c.rtxTimer)
}

func (c *Conn) onRTO() {
	c.rtxTimer = nil
	if c.cfg.RACK {
		c.stopRTO()
		c.rack.tlpOut = false
	}
	if len(c.txSegs) == 0 {
		return
	}
	c.stats.Timeouts++
	c.rtoBackoff++
	if c.rtoBackoff > 10 {
		c.teardown(ErrTimeout)
		return
	}
	if !c.cfg.DisableCC {
		c.ssthresh = c.halfPipe()
		c.cwnd = c.ccUnit(c.cfg.MSS) // back to one segment
	}
	c.inRecovery = false
	c.dupAcks = 0
	// Go-back-N: everything unsacked is eligible for retransmission; the
	// pipe gate doles them out as the window reopens.
	for _, t := range c.txSegs {
		if !t.sacked {
			t.lost = true
		}
	}
	c.trySend()
	c.restartRTO()
}
