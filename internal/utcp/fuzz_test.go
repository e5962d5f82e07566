package utcp

import (
	"encoding/binary"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/sim"
	"minion/internal/tcp"
	"minion/internal/udp"
)

// mkPacket assembles a syntactically valid wire packet for seeding.
func mkPacket(flags byte, seq, ack uint64, window uint32, sack [][2]uint64, payload []byte) []byte {
	p := make([]byte, HeaderLen, HeaderLen+len(sack)*sackBlockLen+len(payload))
	p[0], p[1], p[2], p[3] = Magic, Version, flags, byte(len(sack))
	binary.BigEndian.PutUint32(p[4:], window)
	binary.BigEndian.PutUint64(p[8:], seq)
	binary.BigEndian.PutUint64(p[16:], ack)
	for _, blk := range sack {
		var b [sackBlockLen]byte
		binary.BigEndian.PutUint64(b[0:], blk[0])
		binary.BigEndian.PutUint64(b[8:], blk[1])
		p = append(p, b[:]...)
	}
	return append(p, payload...)
}

// chunk frames pkt into the fuzz input's [len16][bytes] packet stream.
func chunk(pkts ...[]byte) []byte {
	var out []byte
	for _, p := range pkts {
		var l [2]byte
		binary.BigEndian.PutUint16(l[:], uint16(len(p)))
		out = append(out, l[:]...)
		out = append(out, p...)
	}
	return out
}

// In RACK mode the fuzz receiver also sends fuzzMsgs messages of
// fuzzMsgLen bytes once established, so adversarial ACK and SACK fields
// drive the sender's RACK-TLP scoreboard and timers too.
const fuzzMsgs, fuzzMsgLen = 4, 300

// newFuzzReceiver binds a listening uTCP connection on a fresh seeded
// simulator; out receives every datagram it emits (and must release it).
func newFuzzReceiver(rack bool, out func(*buf.Buffer)) (*sim.Simulator, *Binding) {
	s := sim.New(1)
	shim := udp.New()
	shim.SetOutput(func(b *buf.Buffer, _ int) { out(b) })
	cfg := tcp.Config{}.Defaults()
	cfg.Unordered = true
	cfg.MSS = DefaultMSS
	if rack {
		cfg.RACK, cfg.UnorderedSend, cfg.NoDelay = true, true, true
	}
	b := Bind(s, shim, cfg)
	b.Conn().Listen()
	return s, b
}

// listenerISS returns the initial sequence number the fuzz receiver
// answers a SYN with — a constant of the seeded simulator — so seeds can
// acknowledge its data.
func listenerISS() uint64 {
	var iss uint64
	s, b := newFuzzReceiver(true, func(p *buf.Buffer) {
		var seg tcp.Segment
		var sack [tcp.MaxSACKBlocks]tcp.SACKBlock
		if Decode(p.Bytes(), &seg, &sack) == nil && seg.Flags.Has(tcp.FlagSYN) {
			iss = seg.Seq
		}
		p.Release()
	})
	b.Input(buf.From(mkPacket(byte(tcp.FlagSYN), 100, 0, 65535, nil, nil)))
	s.RunFor(5 * time.Millisecond)
	b.Conn().Abort()
	return iss
}

// FuzzReceiver throws adversarial packet streams at a listening uTCP
// receiver: arbitrary bytes, truncations, bogus SACK geometry, spoofed
// sequence space. Invariants: no panic, the in-order delivery path never
// regresses or tears a byte, the codec's accounting covers every packet,
// and the pooled-buffer ledger balances once the connection is torn down.
// With rack set the receiver runs RACK-TLP recovery and sends data of its
// own, and RACK's counters must stay consistent.
func FuzzReceiver(f *testing.F) {
	const syn = byte(tcp.FlagSYN)
	const ack = byte(tcp.FlagACK)
	f.Add([]byte{}, false)
	f.Add(chunk(mkPacket(syn, 100, 0, 65535, nil, nil)), false)
	f.Add(chunk(
		mkPacket(syn, 100, 0, 65535, nil, nil),
		mkPacket(ack, 101, 1, 65535, nil, []byte("hello unordered world")),
	), false)
	f.Add(chunk(
		mkPacket(syn, 0, 0, 0, nil, nil),
		mkPacket(ack, 1, 1, 4096, [][2]uint64{{64, 128}, {256, 300}}, []byte("sacked")),
		mkPacket(ack|byte(tcp.FlagFIN), 30, 1, 4096, nil, nil),
	), false)
	f.Add(chunk(
		[]byte{Magic, Version, 0xff, 0},                          // unknown flags
		[]byte{Magic, 9, ack, 0},                                 // bad version
		[]byte("short"),                                          // truncated
		mkPacket(ack, 5, 5, 1, [][2]uint64{{10, 10}}, nil),       // empty SACK block
		mkPacket(ack, 1<<63, 1<<62, 1<<31, nil, []byte("wrap?")), // huge seq space
		mkPacket(ack, 3, 3, 0, [][2]uint64{{900, 4}}, []byte{1}), // inverted SACK
	), false)
	f.Add(chunk(mkPacket(byte(tcp.FlagRST), 7, 7, 0, nil, nil)), false)

	// RACK seeds: establish, then acknowledge the receiver's own data —
	// a SACKed hole (RACK marking), a bare first ACK (tail probe), a hole
	// whose retransmission is SACKed around again (lost retransmission).
	d := listenerISS() + 1 // first data byte the receiver sends
	est := [][]byte{
		mkPacket(syn, 100, 0, 65535, nil, nil),
		mkPacket(ack, 101, d, 65535, nil, nil),
	}
	all := d + fuzzMsgs*fuzzMsgLen
	f.Add(chunk(append(est,
		mkPacket(ack, 101, d, 65535, [][2]uint64{{d + fuzzMsgLen, d + 3*fuzzMsgLen}}, nil),
		mkPacket(ack, 101, all, 65535, nil, nil),
	)...), true)
	f.Add(chunk(append(est,
		[]byte("idle"), // a nonzero RTT sample, or no probe is allowed
		mkPacket(ack, 101, d+fuzzMsgLen, 65535, nil, nil),
		[]byte("idle"), []byte("idle"), []byte("idle"),
		mkPacket(ack, 101, all, 65535, nil, nil),
	)...), true)
	f.Add(chunk(append(est,
		mkPacket(ack, 101, d, 65535, [][2]uint64{{d + fuzzMsgLen, d + 2*fuzzMsgLen}}, nil),
		mkPacket(ack, 101, d, 65535, [][2]uint64{{d + fuzzMsgLen, d + 3*fuzzMsgLen}}, nil),
		[]byte("idle"),
		mkPacket(ack, 101, d, 65535, [][2]uint64{{d + fuzzMsgLen, all}}, nil),
		mkPacket(ack, 101, all, 65535, nil, []byte("done")),
	)...), true)

	f.Fuzz(func(t *testing.T, data []byte, rack bool) {
		before := buf.Stats()
		s, b := newFuzzReceiver(rack, (*buf.Buffer).Release)
		tc := b.Conn()
		// The receiver's payloads are adopted, not pooled: Abort drops its
		// scoreboard without releasing them, by design.
		adopted := uint64(0)
		sendData := func() {
			if !rack || adopted > 0 || tc.State() != tcp.StateEstablished {
				return
			}
			for i := 0; i < fuzzMsgs; i++ {
				adopted++
				if _, err := tc.WriteMsgBuf(buf.Adopt(make([]byte, fuzzMsgLen)), tcp.WriteOptions{Tag: tcp.TagDefault}); err != nil {
					t.Fatalf("WriteMsgBuf: %v", err)
				}
			}
		}

		// Drain every delivery, checking the in-order path's contract: the
		// cumulative point only advances, contiguously.
		var nextInOrder uint64
		haveInOrder := false
		tc.OnReadable(func() {
			for {
				d, err := tc.ReadUnordered()
				if err != nil {
					return
				}
				if d.InOrder {
					if haveInOrder && d.Offset != nextInOrder {
						t.Errorf("in-order path tore: delivery at %d, cumulative point %d", d.Offset, nextInOrder)
					}
					nextInOrder = d.Offset + uint64(len(d.Data))
					haveInOrder = true
				}
				d.Release()
			}
		})

		fed := int64(0)
		for off := 0; off+2 <= len(data); {
			n := int(binary.BigEndian.Uint16(data[off:])) % 2048
			off += 2
			if off+n > len(data) {
				n = len(data) - off
			}
			b.Input(buf.From(data[off : off+n]))
			off += n
			fed++
			s.RunFor(5 * time.Millisecond)
			sendData()
		}
		s.RunFor(300 * time.Millisecond) // let probe and retransmission timers fire

		st := b.Stats()
		if st.PacketsIn+st.Malformed != fed {
			t.Errorf("codec accounting: %d in + %d malformed != %d fed", st.PacketsIn, st.Malformed, fed)
		}
		if ts := tc.Stats(); ts.RACKLostRetrans > ts.RACKLosses || ts.TLPs > ts.SegsSent || (!rack && ts.RACKLosses+ts.TLPs > 0) {
			t.Errorf("inconsistent RACK counters: %+v", ts)
		}

		tc.Abort()
		s.RunFor(time.Second)
		after := buf.Stats()
		g := after.Gets - before.Gets
		p := after.Puts - before.Puts
		u := after.Unpooled - before.Unpooled - adopted
		if p < g-u {
			t.Errorf("buffer ledger unbalanced: gets=%d puts=%d unpooled=%d", g, p, u)
		}
	})
}

// FuzzDecode checks the codec alone: Decode never panics, and any packet
// it accepts survives a re-encode/re-decode round trip with identical
// header fields and payload.
func FuzzDecode(f *testing.F) {
	f.Add(mkPacket(byte(tcp.FlagSYN), 100, 0, 65535, nil, nil))
	f.Add(mkPacket(byte(tcp.FlagACK), 1, 1, 4096, [][2]uint64{{64, 128}}, []byte("payload")))
	f.Add([]byte{Magic, Version})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var seg tcp.Segment
		var sack [tcp.MaxSACKBlocks]tcp.SACKBlock
		if err := Decode(data, &seg, &sack); err != nil {
			return
		}
		enc := Encode(&seg)
		defer enc.Release()
		var seg2 tcp.Segment
		var sack2 [tcp.MaxSACKBlocks]tcp.SACKBlock
		if err := Decode(enc.Bytes(), &seg2, &sack2); err != nil {
			t.Fatalf("re-decode of encoded packet failed: %v", err)
		}
		if seg2.Seq != seg.Seq || seg2.Ack != seg.Ack || seg2.Flags != seg.Flags ||
			seg2.Window != seg.Window || len(seg2.SACK) != len(seg.SACK) ||
			string(seg2.Payload) != string(seg.Payload) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", seg, seg2)
		}
		for i := range seg.SACK {
			if seg.SACK[i] != seg2.SACK[i] {
				t.Fatalf("SACK block %d diverged: %+v vs %+v", i, seg.SACK[i], seg2.SACK[i])
			}
		}
	})
}
