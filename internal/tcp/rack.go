package tcp

import "time"

// RACK-TLP loss recovery (RFC 8985), selected by Config.RACK.
//
// The default recovery mode — Reno, RFC 6675 SACK loss marking, an RTO
// restarted on every transmission — has a gap thin, latency-sensitive
// flows fall into: a fast retransmission that is itself lost is never
// marked lost again, so it stays counted in pipe; with cwnd held at two
// segments in recovery, the next lost new segment fills the window and
// sending stops; and the RTO that must rescue the stall is pushed back by
// every transmission. Every queued datagram then waits one RTO.
//
// RACK replaces counting with time. A segment is lost once a segment sent
// after it has been delivered (cumulatively or selectively) and a
// reordering window of min_RTT/4 has elapsed beyond the delivered
// segment's RTT — a rule that applies to retransmissions exactly as to
// first transmissions. A tail loss probe (TLP) sent after a probe timeout
// (PTO) without an ACK gives RACK the delivery it needs to see a loss at
// the tail of a burst. The RTO follows RFC 6298: started when a transmission
// finds it not running (§5.1), restarted by an ACK of new data (§5.3).
// The RFC 6675 dupack trigger stays active alongside.
//
// The RTO, the probe timeout and the reordering timeout are deadlines
// sharing the rtxTimer slot lazily: the slot is rescheduled only when the
// earliest deadline moves before the pending firing, and a firing that
// finds nothing due re-arms for whatever remains. A flow that keeps
// several segments in flight therefore costs no timer operation per
// segment. A thin stream, whose every ACK empties the flight, stops the
// slot on that ACK (stopRTO) and schedules it again on its next send: one
// schedule and one cancel per segment instead of an idle firing.
//
// The probe timeout is max(2·SRTT, 300 µs). RFC 8985 adds a worst-case
// delayed-ACK time (WCDelAckT) when one segment is in flight; it is left
// out because a uTCP receiver ACKs every segment (Config.DelayedAck is
// not reachable through minion's API). A receiver that delays ACKs needs
// it back.

// tlpMinPTO floors the probe timeout at the wall-clock runtime's timer
// granularity (RFC 9002's kGranularity): a shorter deadline only fires
// late, or early when another event wakes the runtime. The 300 µs floor
// assumes the Linux timerfd that an unpolled rt.Loop sleeps on, which
// fires tens of microseconds late at p50; uTCP runs on such loops. A loop
// that keeps a Go timer (other platforms, a poller's Park, a Linux kernel
// that refused the timerfd) fires from the runtime's millisecond-grained
// poll wait, so there the probe goes out up to about a millisecond late,
// near where the old 1 ms floor put it; nothing measures those loops. On
// a sub-millisecond path the floor, not 2·SRTT, sets the probe timeout,
// so a stream sending every few milliseconds probes a lost datagram well
// before its next send reveals the loss. With no floor, scheduling jitter
// produces spurious probes.
const tlpMinPTO = 300 * time.Microsecond

// rackState is the sender's RACK-TLP state. Deadlines are in runtime time
// and zero when not armed.
type rackState struct {
	xmitTS time.Duration // send time of the most recently sent delivered segment
	endSeq uint64        // its end sequence: the tie-break for equal send times
	rtt    time.Duration // its round-trip time
	minRTT time.Duration // smallest RTT sample from a never-retransmitted segment

	rtoAt, ptoAt, reoAt time.Duration
	timerAt             time.Duration // when the pending rtxTimer firing is due

	tlpOut     bool   // a probe is outstanding
	tlpEnd     uint64 // sndNxt just after the probe
	tlpRetrans bool   // the probe was a retransmission
}

// sentAfter reports whether a transmission at (t1, end1) happened after
// one at (t2, end2): later in time, or at the same instant with the higher
// end sequence (RFC 8985 RACK_sent_after).
func sentAfter(t1 time.Duration, end1 uint64, t2 time.Duration, end2 uint64) bool {
	return t1 > t2 || (t1 == t2 && end1 > end2)
}

// rackDelivered updates RACK from a segment newly delivered, cumulatively
// or selectively (RFC 8985 §6.2 step 2).
func (c *Conn) rackDelivered(t *txSeg) {
	rtt := c.rtm.Now() - t.sentAt
	if t.retrans && rtt < c.rack.minRTT {
		return // too quick to answer the retransmission: the original's ACK
	}
	if !t.retrans && (c.rack.minRTT == 0 || rtt < c.rack.minRTT) {
		c.rack.minRTT = rtt
	}
	if sentAfter(t.sentAt, t.end(), c.rack.xmitTS, c.rack.endSeq) {
		c.rack.xmitTS, c.rack.endSeq, c.rack.rtt = t.sentAt, t.end(), rtt
	}
}

// rackDetectLoss marks lost every outstanding segment sent before the most
// recently sent delivered one once its reordering window has elapsed, and
// arms the reordering timeout for the earliest segment still inside its
// window (RFC 8985 §6.2 steps 4–5). The first loss outside a recovery
// episode opens one.
func (c *Conn) rackDetectLoss() {
	if c.rack.endSeq == 0 {
		return // nothing delivered yet
	}
	now := c.rtm.Now()
	reoWnd := c.rack.minRTT / 4
	if c.srtt > 0 && reoWnd > c.srtt {
		reoWnd = c.srtt
	}
	var wait time.Duration
	for _, t := range c.txSegs {
		if t.sacked || t.lost || !sentAfter(c.rack.xmitTS, c.rack.endSeq, t.sentAt, t.end()) {
			continue
		}
		if left := t.sentAt + c.rack.rtt + reoWnd - now; left > 0 {
			if wait == 0 || left < wait {
				wait = left
			}
			continue
		}
		if !c.inRecovery && !c.cfg.DisableCC {
			c.startRecovery()
		}
		t.lost = true
		c.stats.RACKLosses++
		if t.retrans {
			c.stats.RACKLostRetrans++
		}
	}
	c.rack.reoAt = 0
	if wait > 0 {
		c.rack.reoAt = now + wait
		c.rackArm()
	}
}

// tlpAllowed reports whether a tail loss probe may be scheduled: data is
// outstanding, an RTT is known, and the sender is neither recovering from
// a loss nor already probing (RFC 8985 §7.2).
func (c *Conn) tlpAllowed() bool {
	return len(c.txSegs) > 0 && c.srtt > 0 && !c.inRecovery && c.rtoBackoff == 0 && !c.rack.tlpOut
}

// pto is the probe timeout: two smoothed RTTs, floored at tlpMinPTO,
// with no WCDelAckT term (see the header).
func (c *Conn) pto() time.Duration {
	if p := 2 * c.srtt; p > tlpMinPTO {
		return p
	}
	return tlpMinPTO
}

// rackOnTransmit follows every transmission: the RTO starts only if it is
// not running (RFC 6298 §5.1) and the probe timeout restarts.
func (c *Conn) rackOnTransmit() {
	now := c.rtm.Now()
	if c.rack.rtoAt == 0 {
		c.rack.rtoAt = now + c.rto()
	}
	if c.tlpAllowed() {
		c.rack.ptoAt = now + c.pto()
	}
	c.rackArm()
}

// rackRestart restarts the RTO and the probe timeout from now: on an ACK
// of new data (RFC 6298 §5.3, RFC 8985 §7.2) and after a timeout.
func (c *Conn) rackRestart() {
	now := c.rtm.Now()
	c.rack.rtoAt = now + c.rto()
	c.rack.ptoAt = 0
	if c.tlpAllowed() {
		c.rack.ptoAt = now + c.pto()
	}
	c.rackArm()
}

// rackNewAck ends an outstanding probe once the ACK covers it. Without
// DSACK the sender cannot tell whether a retransmitted probe repaired a
// loss or duplicated a delivered segment, so it assumes the former and
// reduces the window once (RFC 8985 §7.4).
func (c *Conn) rackNewAck(ack uint64) {
	if !c.rack.tlpOut || ack < c.rack.tlpEnd {
		return
	}
	c.rack.tlpOut = false
	if c.rack.tlpRetrans && !c.inRecovery && !c.cfg.DisableCC {
		c.ssthresh = c.halfPipe()
		c.cwnd = c.ssthresh
	}
}

// rackArm points the rtxTimer slot at the earliest armed deadline,
// rescheduling only when that deadline precedes the pending firing.
func (c *Conn) rackArm() {
	at := c.rack.rtoAt
	for _, d := range [...]time.Duration{c.rack.ptoAt, c.rack.reoAt} {
		if d != 0 && (at == 0 || d < at) {
			at = d
		}
	}
	if at == 0 || (c.rtxTimer != nil && c.rack.timerAt <= at) {
		return
	}
	c.stopTimer(&c.rtxTimer)
	c.rack.timerAt = at
	c.rtxTimer = c.rtm.Schedule(at-c.rtm.Now(), c.rtoFn)
}

// onRACKTimer fires the rtxTimer slot in RACK mode: whichever deadlines
// are due run — an RTO subsumes the others — and the slot re-arms.
func (c *Conn) onRACKTimer() {
	c.rtxTimer = nil
	now := c.rtm.Now()
	if c.rack.rtoAt != 0 && now >= c.rack.rtoAt {
		c.onRTO()
		return
	}
	if c.rack.reoAt != 0 && now >= c.rack.reoAt {
		c.rackDetectLoss()
		c.trySend()
	}
	if c.rack.ptoAt != 0 && now >= c.rack.ptoAt {
		c.rack.ptoAt = 0
		c.sendProbe()
	}
	c.rackArm()
}

// sendProbe sends one tail loss probe regardless of cwnd: a new segment
// if one may go, else a retransmission of the highest unSACKed segment
// (RFC 8985 §7.3).
func (c *Conn) sendProbe() {
	if !c.tlpAllowed() {
		return
	}
	var last *txSeg
	for i := len(c.txSegs) - 1; i >= 0 && last == nil; i-- {
		if !c.txSegs[i].sacked {
			last = c.txSegs[i]
		}
	}
	if last == nil {
		return
	}
	c.rack.tlpOut = true
	c.stats.TLPs++
	c.rack.tlpRetrans = !c.sendNewData()
	if c.rack.tlpRetrans {
		c.retransmit(last)
	}
	c.rack.tlpEnd = c.sndNxt
}
