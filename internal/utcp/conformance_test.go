package utcp

import (
	"fmt"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/netem"
	"minion/internal/rt"
	"minion/internal/sim"
	"minion/internal/tcp"
	"minion/internal/udp"
)

// The conformance suite proves the tentpole's central claim: hosting the
// uTCP machinery behind the packet codec on a datagram substrate changes
// nothing about protocol behavior. The same tcp.Conn state machines run
// twice on the deterministic simulator — once wired segment-to-segment
// (the repo's original sim substrate) and once through Encode/Decode over
// udp shims (the real-socket wire format) — under an identical scripted
// loss/reorder/duplication schedule, and must produce byte-identical
// delivery traces and identical protocol counters.

// schedule scripts one direction of a path by transmit index: the nth
// Send is dropped, duplicated, or delayed regardless of what it carries —
// the same schedule therefore applies to segments and to datagrams.
type schedule struct {
	drop  map[int]bool
	dup   map[int]bool
	delay map[int]time.Duration // extra latency (reordering)
}

// scriptedPath is a deterministic netem.Element executing a schedule over
// a fixed base delay.
type scriptedPath struct {
	r       rt.Runtime
	base    time.Duration
	sched   schedule
	deliver netem.Handler
	idx     int
}

func newScriptedPath(r rt.Runtime, base time.Duration, sched schedule) *scriptedPath {
	return &scriptedPath{r: r, base: base, sched: sched}
}

func (p *scriptedPath) SetDeliver(h netem.Handler) { p.deliver = h }

func (p *scriptedPath) Send(pkt netem.Packet) {
	i := p.idx
	p.idx++
	if p.sched.drop[i] {
		if b, ok := pkt.Data.(*buf.Buffer); ok {
			b.Release() // the path owned the datagram's reference
		}
		return
	}
	d := p.base + p.sched.delay[i]
	p.r.Schedule(d, func() { p.deliver(pkt) })
	if p.sched.dup[i] {
		dup := pkt
		if b, ok := pkt.Data.(*buf.Buffer); ok {
			dup.Data = b.Slice(0, b.Len()) // extra delivery, extra reference
		}
		p.r.Schedule(d+p.base/2, func() { p.deliver(dup) })
	}
}

// delivery is one ReadUnordered result, the unit of trace comparison.
type delivery struct {
	Offset  uint64
	Sum     uint32 // tiny content checksum: offsets alone could alias
	Len     int
	InOrder bool
}

func recordUnordered(tc *tcp.Conn, trace *[]delivery) {
	tc.OnReadable(func() {
		for {
			d, err := tc.ReadUnordered()
			if err != nil {
				return
			}
			var sum uint32
			for _, bb := range d.Data {
				sum = sum*31 + uint32(bb)
			}
			*trace = append(*trace, delivery{d.Offset, sum, len(d.Data), d.InOrder})
			d.Release()
		}
	})
}

// conformanceCfg pins every knob that could diverge between the two
// substrates — in particular the MSS, which the codec path defaults to
// DefaultMSS but the sim path defaults to an Ethernet-sized 1448 — and
// selects the recovery mode.
func conformanceCfg(rack bool) tcp.Config {
	cfg := tcp.Config{}.Defaults()
	cfg.Unordered = true
	cfg.UnorderedSend = true
	cfg.NoDelay = true
	cfg.MSS = DefaultMSS
	cfg.RACK = rack
	return cfg
}

// scheduleWrites scripts the sender: bulk messages on the default tag at
// fixed sim times, one high-priority insert, then a graceful close.
func scheduleWrites(s *sim.Simulator, a *tcp.Conn) {
	const msgLen = 700
	for i := 0; i < 40; i++ {
		id := i
		s.Schedule(10*time.Millisecond+time.Duration(id)*2*time.Millisecond, func() {
			msg := make([]byte, msgLen)
			for j := range msg {
				msg[j] = byte(id*31 + j)
			}
			opt := tcp.WriteOptions{Tag: tcp.TagDefault}
			if id == 39 {
				opt.Tag = 0 // the priority insert, queued last
			}
			if _, err := a.WriteMsg(msg, opt); err != nil {
				panic(fmt.Sprintf("WriteMsg %d: %v", id, err))
			}
		})
	}
	s.Schedule(300*time.Millisecond, a.Close)
}

// statsOfInterest projects the counters that must match across
// substrates. Byte counters ride along with the segment counters.
type statsOfInterest struct {
	SegsSent, SegsRetrans, SegsReceived int
	AcksSent, DupAcksReceived           int
	FastRecoveries, Timeouts            int
	DeliveredOOO                        int
	RACKLosses, RACKLostRetrans, TLPs   int
}

func project(st tcp.Stats) statsOfInterest {
	return statsOfInterest{
		SegsSent: st.SegsSent, SegsRetrans: st.SegsRetrans, SegsReceived: st.SegsReceived,
		AcksSent: st.AcksSent, DupAcksReceived: st.DupAcksReceived,
		FastRecoveries: st.FastRecoveries, Timeouts: st.Timeouts,
		DeliveredOOO: st.DeliveredOOO,
		RACKLosses:   st.RACKLosses, RACKLostRetrans: st.RACKLostRetrans, TLPs: st.TLPs,
	}
}

// runSimDirect runs the schedule over the segment-passing sim substrate.
func runSimDirect(seed int64, rack bool, ab, ba schedule) ([]delivery, statsOfInterest, statsOfInterest) {
	s := sim.New(seed)
	cfg := conformanceCfg(rack)
	a, b := tcp.NewPair(s, cfg, cfg, newScriptedPath(s, 5*time.Millisecond, ab), newScriptedPath(s, 5*time.Millisecond, ba))
	var trace []delivery
	recordUnordered(b, &trace)
	scheduleWrites(s, a)
	s.RunUntil(20 * time.Second)
	return trace, project(a.Stats()), project(b.Stats())
}

// runOverCodec runs the identical schedule with every segment encoded
// into a UDP datagram and decoded back — the userspace wire path on the
// simulator.
func runOverCodec(seed int64, rack bool, ab, ba schedule) ([]delivery, statsOfInterest, statsOfInterest) {
	s := sim.New(seed)
	cfg := conformanceCfg(rack)
	ua, ub := udp.New(), udp.New()
	udp.Wire(ua, ub, newScriptedPath(s, 5*time.Millisecond, ab), newScriptedPath(s, 5*time.Millisecond, ba))
	bindA := Bind(s, ua, cfg)
	bindB := Bind(s, ub, cfg)
	var trace []delivery
	recordUnordered(bindB.Conn(), &trace)
	bindB.Conn().Listen()
	bindA.Conn().Connect()
	scheduleWrites(s, bindA.Conn())
	s.RunUntil(20 * time.Second)
	return trace, project(bindA.Conn().Stats()), project(bindB.Conn().Stats())
}

// conformanceCases are the scripted schedules both substrates run.
var conformanceCases = []struct {
	name   string
	ab, ba schedule
}{
	{"clean", schedule{}, schedule{}},
	{"data loss", schedule{drop: map[int]bool{3: true, 9: true, 17: true, 18: true, 30: true}}, schedule{}},
	{"ack loss", schedule{}, schedule{drop: map[int]bool{2: true, 5: true, 11: true}}},
	{"reorder", schedule{delay: map[int]time.Duration{6: 25 * time.Millisecond, 14: 40 * time.Millisecond}}, schedule{}},
	{"duplication", schedule{dup: map[int]bool{4: true, 8: true, 20: true}}, schedule{}},
	{"mixed", schedule{
		drop:  map[int]bool{5: true, 16: true, 27: true},
		dup:   map[int]bool{7: true},
		delay: map[int]time.Duration{10: 30 * time.Millisecond},
	}, schedule{drop: map[int]bool{4: true}}},
}

// TestGoldenTraceConformance runs matched schedules through both
// substrates and requires identical delivery traces — same fragments, same
// offsets, same content, same in-order/out-of-order classification — and
// identical protocol counters on both endpoints.
func TestGoldenTraceConformance(t *testing.T) { checkConformance(t, false) }

// TestGoldenTraceConformanceRACK repeats the comparison with RACK-TLP
// recovery, the mode the real-socket transport runs: its timers and
// scoreboard state must be as substrate-independent as the default's.
func TestGoldenTraceConformanceRACK(t *testing.T) {
	if checkConformance(t, true) == 0 {
		t.Error("no schedule exercised RACK loss marking")
	}
}

// checkConformance runs every case in one recovery mode and returns how
// many segments RACK marked lost on the sim-side sender across the cases.
func checkConformance(t *testing.T, rack bool) (rackLosses int) {
	for _, c := range conformanceCases {
		t.Run(c.name, func(t *testing.T) {
			simTrace, simA, simB := runSimDirect(42, rack, c.ab, c.ba)
			codTrace, codA, codB := runOverCodec(42, rack, c.ab, c.ba)
			rackLosses += simA.RACKLosses

			if len(simTrace) == 0 {
				t.Fatal("sim substrate delivered nothing — broken harness")
			}
			if len(simTrace) != len(codTrace) {
				t.Fatalf("delivery count diverged: sim %d vs codec %d", len(simTrace), len(codTrace))
			}
			for i := range simTrace {
				if simTrace[i] != codTrace[i] {
					t.Fatalf("delivery %d diverged:\n  sim   %+v\n  codec %+v", i, simTrace[i], codTrace[i])
				}
			}
			if simA != codA {
				t.Errorf("sender counters diverged:\n  sim   %+v\n  codec %+v", simA, codA)
			}
			if simB != codB {
				t.Errorf("receiver counters diverged:\n  sim   %+v\n  codec %+v", simB, codB)
			}
			// The lossy and reordered schedules must actually exercise the
			// out-of-order machinery, or the comparison proves nothing.
			if c.ab.drop != nil || c.ab.delay != nil {
				if simB.DeliveredOOO == 0 {
					t.Error("schedule produced no out-of-order deliveries")
				}
			}
		})
	}
	return rackLosses
}
