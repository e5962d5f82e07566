package tcp

import (
	"testing"
	"time"

	"minion/internal/netem"
	"minion/internal/sim"
)

// dropPath is a forward path that drops chosen transmissions of chosen
// sequence numbers: drops[seq] lists which transmissions (0 = first,
// 1 = first retransmission, ...) of the segment starting at seq are lost.
type dropPath struct {
	netem.Element
	drops map[uint64][]int
	sends map[uint64]int
}

func (p *dropPath) Send(pkt netem.Packet) {
	if seg, ok := pkt.Data.(*Segment); ok && len(seg.Payload) > 0 {
		n := p.sends[seg.Seq]
		p.sends[seg.Seq] = n + 1
		for _, d := range p.drops[seg.Seq] {
			if d == n {
				return
			}
		}
	}
	p.Element.Send(pkt)
}

// thinStream is one run of a paced message flow — the conferencing shape
// — over a sim path with a scripted drop schedule.
type thinStream struct {
	interval time.Duration // send spacing
	oneWay   time.Duration // path delay per direction
	msgs     int
	drops    map[int][]int // message index -> transmissions to drop
}

const thinMsgLen = 100

// run sends the flow with the given recovery mode and returns each
// message's latency (first arrival minus send time) and the sender's
// counters.
func (ts thinStream) run(t *testing.T, rack bool) ([]time.Duration, Stats) {
	t.Helper()
	s := sim.New(1)
	fwd := &dropPath{Element: netem.NewLink(s, netem.LinkConfig{Delay: ts.oneWay}), sends: map[uint64]int{}}
	back := netem.NewLink(s, netem.LinkConfig{Delay: ts.oneWay})
	a, b := NewPair(s, Config{NoDelay: true, UnorderedSend: true, RACK: rack}, Config{Unordered: true}, fwd, back)
	s.RunUntil(time.Second)
	if a.State() != StateEstablished {
		t.Fatalf("not established: %v", a.State())
	}
	// Message i occupies stream offsets [i*thinMsgLen, (i+1)*thinMsgLen).
	fwd.drops = map[uint64][]int{}
	for i, d := range ts.drops {
		fwd.drops[a.iss+1+uint64(i*thinMsgLen)] = d
	}

	start := s.Now()
	sentAt := func(i int) time.Duration { return start + time.Duration(i)*ts.interval }
	lat := make([]time.Duration, ts.msgs)
	for i := range lat {
		lat[i] = -1
	}
	b.OnReadable(func() {
		for {
			d, err := b.ReadUnordered()
			if err != nil {
				return
			}
			for i := int(d.Offset) / thinMsgLen; i < (int(d.Offset)+len(d.Data))/thinMsgLen; i++ {
				if lat[i] < 0 {
					lat[i] = s.Now() - sentAt(i)
				}
			}
			d.Release()
		}
	})
	for i := 0; i < ts.msgs; i++ {
		s.ScheduleAt(sentAt(i), func() {
			if _, err := a.WriteMsg(make([]byte, thinMsgLen), WriteOptions{Tag: TagDefault}); err != nil {
				t.Errorf("WriteMsg: %v", err)
			}
		})
	}
	s.RunUntil(start + time.Duration(ts.msgs)*ts.interval + 10*time.Second)
	for i, l := range lat {
		if l < 0 {
			t.Fatalf("message %d never arrived", i)
		}
	}
	return lat, a.Stats()
}

func maxLatency(lat []time.Duration) (time.Duration, int) {
	worst, at := time.Duration(0), 0
	for i, l := range lat {
		if l > worst {
			worst, at = l, i
		}
	}
	return worst, at
}

// TestRACKRecoversLostRetransmission pins the stall RACK exists to fix.
// Message k is lost, then its fast retransmission, then a later new
// message m. Without RACK the lost retransmission is never re-marked and
// stays counted in pipe; m fills the two-segment recovery window, sending
// stops, and the whole queue waits for an RTO. With RACK each lost
// transmission is marked as soon as a segment sent after it is delivered.
func TestRACKRecoversLostRetransmission(t *testing.T) {
	const k, m = 5, 12
	ts := thinStream{
		interval: 20 * time.Millisecond,
		oneWay:   5 * time.Millisecond,
		msgs:     40,
		drops:    map[int][]int{k: {0, 1}, m: {0}},
	}
	rtt := 2 * ts.oneWay

	lat, st := ts.run(t, true)
	if st.Timeouts != 0 {
		t.Errorf("RACK: %d RTOs, want 0", st.Timeouts)
	}
	// Each lost transmission waits for one later send to reveal it, then
	// one round trip to repair: k needs two intervals, m one.
	bound := 2*ts.interval + 3*rtt
	worst, i := maxLatency(lat)
	t.Logf("RACK: worst latency %v (message %d), %+v", worst, i, st)
	if worst > bound {
		t.Errorf("RACK: message %d took %v, want <= %v", i, worst, bound)
	}
	if st.RACKLosses < 3 || st.RACKLostRetrans < 1 {
		t.Errorf("RACK counters: %d losses, %d lost retransmissions; want >= 3 and >= 1", st.RACKLosses, st.RACKLostRetrans)
	}

	// The default mode keeps today's RTO-paced recovery, so the
	// simulator's calibrated behaviour stays pinned.
	lat, st = ts.run(t, false)
	if st.Timeouts == 0 {
		t.Error("default recovery: no RTO, want the RTO-paced stall")
	}
	worst, i = maxLatency(lat)
	t.Logf("default: worst latency %v (message %d), %+v", worst, i, st)
	if worst < (Config{}).Defaults().MinRTO {
		t.Errorf("default recovery: worst latency %v, want >= MinRTO", worst)
	}
	if st.RACKLosses != 0 || st.TLPs != 0 {
		t.Errorf("default recovery reported RACK activity: %+v", st)
	}
}

// TestRACKTailLossProbe drops the last message of a burst, the loss no
// later delivery can reveal: a tail loss probe repairs it after the probe
// timeout instead of an RTO.
func TestRACKTailLossProbe(t *testing.T) {
	ts := thinStream{
		interval: 20 * time.Millisecond,
		oneWay:   5 * time.Millisecond,
		msgs:     10,
		drops:    map[int][]int{9: {0}},
	}
	lat, st := ts.run(t, true)
	if st.Timeouts != 0 || st.TLPs != 1 {
		t.Errorf("RACK: %d RTOs and %d probes, want 0 and 1", st.Timeouts, st.TLPs)
	}
	// On this 10 ms round trip the probe timeout is 2·SRTT, above the
	// floor: the probe goes out 2·RTT after the send and arrives one way
	// later, with one more one-way delay of slack.
	rtt := 2 * ts.oneWay
	if bound := 2*rtt + 2*ts.oneWay; lat[9] > bound {
		t.Errorf("tail message took %v, want <= %v", lat[9], bound)
	}

	_, st = ts.run(t, false)
	if st.Timeouts == 0 || st.TLPs != 0 {
		t.Errorf("default recovery: %d RTOs and %d probes, want an RTO and no probe", st.Timeouts, st.TLPs)
	}
}

// TestRACKSubMillisecondProbe runs the conferencing shape on a 0.1 ms
// path, where 2·SRTT is far below the floor. The lost message must be
// probed at the tlpMinPTO floor, before the next send 2 ms later would reveal
// the loss, and the probe must be the only one: the floor keeps the
// runtime's timer granularity from triggering spurious probes.
func TestRACKSubMillisecondProbe(t *testing.T) {
	const k = 20
	ts := thinStream{
		interval: 2 * time.Millisecond,
		oneWay:   50 * time.Microsecond,
		msgs:     40,
		drops:    map[int][]int{k: {0}},
	}
	lat, st := ts.run(t, true)
	t.Logf("message %d took %v, %+v", k, lat[k], st)
	if st.Timeouts != 0 || st.TLPs != 1 {
		t.Errorf("RACK: %d RTOs and %d probes, want 0 and 1", st.Timeouts, st.TLPs)
	}
	if bound := tlpMinPTO + 4*ts.oneWay; lat[k] > bound {
		t.Errorf("message %d took %v, want <= %v", k, lat[k], bound)
	}
}

// TestRACKIdleTimerStopped pins the stop of the rtxTimer slot once an ACK
// empties the flight. A thin stream's every ACK does so; a firing left
// pending with nothing due would cost the runtime one wake-up per segment.
func TestRACKIdleTimerStopped(t *testing.T) {
	s := sim.New(1)
	fwd := netem.NewLink(s, netem.LinkConfig{Delay: 50 * time.Microsecond})
	back := netem.NewLink(s, netem.LinkConfig{Delay: 50 * time.Microsecond})
	a, _ := NewPair(s, Config{NoDelay: true, RACK: true}, Config{}, fwd, back)
	s.RunUntil(time.Second)
	for i := 0; i < 3; i++ {
		if _, err := a.Write(make([]byte, thinMsgLen)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		s.RunFor(500 * time.Microsecond)
		if a.sndUna != a.sndNxt {
			t.Fatalf("message %d: %d bytes unacked after 5 RTTs", i, a.sndNxt-a.sndUna)
		}
		if a.rtxTimer != nil {
			t.Errorf("message %d: rtxTimer still pending with nothing in flight", i)
		}
	}
	if n := s.Run(); n != 0 {
		t.Errorf("the simulator ran %d events after every byte was acked, want 0", n)
	}
}

// TestRACKRTOBackoff black-holes the path: with nothing delivered RACK
// cannot mark anything, so the RTO still fires, backs off, and repairs the
// transfer once the path returns.
func TestRACKRTOBackoff(t *testing.T) {
	s := sim.New(9)
	blackhole := true
	s.Schedule(2*time.Second, func() { blackhole = false })
	fwd := netem.NewLink(s, netem.LinkConfig{Delay: 10 * time.Millisecond})
	back := netem.NewLink(s, netem.LinkConfig{Delay: 10 * time.Millisecond})
	a, b := New(s, Config{NoDelay: true, RACK: true}, nil), New(s, Config{}, nil)
	a.SetOutput(func(seg *Segment) {
		if blackhole && len(seg.Payload) > 0 {
			return
		}
		fwd.Send(netem.Packet{Data: seg, Size: seg.WireSize()})
	})
	fwd.SetDeliver(func(p netem.Packet) { b.Input(p.Data.(*Segment)) })
	b.SetOutput(func(seg *Segment) { back.Send(netem.Packet{Data: seg, Size: seg.WireSize()}) })
	back.SetDeliver(func(p netem.Packet) { a.Input(p.Data.(*Segment)) })
	b.Listen()
	a.Connect()
	got := 0
	b.OnReadable(func() {
		p := make([]byte, 4096)
		for {
			n, _ := b.Read(p)
			if n == 0 {
				return
			}
			got += n
		}
	})
	s.Schedule(100*time.Millisecond, func() { a.Write(patternBytes(5000)) })
	s.RunUntil(30 * time.Second)
	if got != 5000 {
		t.Fatalf("received %d, want 5000", got)
	}
	if st := a.Stats(); st.Timeouts < 2 {
		t.Errorf("%d RTOs across a 1.9 s outage, want a backed-off series", st.Timeouts)
	}
}

// TestOnReadableAfterData registers the reader only after data (and, in
// the second case, the FIN) has been queued: the callback must still fire.
func TestOnReadableAfterData(t *testing.T) {
	for _, unordered := range []bool{false, true} {
		s := sim.New(1)
		c, _ := scriptedReceiver(s, unordered)
		c.Input(dataSeg(1001, []byte("early")))
		s.Run()
		fired := 0
		c.OnReadable(func() { fired++ })
		s.Run()
		if fired != 1 {
			t.Errorf("unordered=%v: callback fired %d times for queued data, want 1", unordered, fired)
		}
	}

	s := sim.New(1)
	c, _ := scriptedReceiver(s, false)
	c.Input(&Segment{Seq: 1001, Ack: 5001, Flags: FlagACK | FlagFIN, Window: 65535})
	s.Run()
	fired := 0
	c.OnReadable(func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Errorf("callback fired %d times after the peer's FIN, want 1", fired)
	}
}

// TestDupSegsReceived: the receiver counts every data segment that brings
// no new byte, whether its bytes were already cumulatively acknowledged
// or only SACKed. The path delivers every segment twice and loses one
// message's first transmission, so the segments sent after it arrive out
// of order until the repair. Every transmission that arrives brings new
// bytes and its copy brings none: one duplicate per arriving transmission.
func TestDupSegsReceived(t *testing.T) {
	s := sim.New(1)
	link := netem.LinkConfig{Delay: time.Millisecond, DuplicateProb: 1}
	fwd := &dropPath{Element: netem.NewLink(s, link), sends: map[uint64]int{}}
	back := netem.NewLink(s, netem.LinkConfig{Delay: time.Millisecond})
	a, b := NewPair(s, Config{NoDelay: true, RACK: true}, Config{}, fwd, back)
	s.RunUntil(time.Second)
	if a.State() != StateEstablished {
		t.Fatalf("not established: %v", a.State())
	}
	const msgs, lost = 20, 5
	fwd.drops = map[uint64][]int{a.iss + 1 + lost*thinMsgLen: {0}}
	for i := 0; i < msgs; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() {
			if _, err := a.Write(make([]byte, thinMsgLen)); err != nil {
				t.Errorf("Write: %v", err)
			}
		})
	}
	s.RunUntil(10 * time.Second)
	sent, got := a.Stats(), b.Stats()
	sends := 0
	for _, n := range fwd.sends {
		sends += n
	}
	if sent.SegsRetrans == 0 {
		t.Fatal("the lost message was never retransmitted")
	}
	if want := sends - 1; got.DupSegsReceived != want {
		t.Errorf("DupSegsReceived = %d, want %d (%d data transmissions, one lost)", got.DupSegsReceived, want, sends)
	}
}
