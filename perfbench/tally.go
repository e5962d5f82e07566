package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"time"
)

// Payload layout. Every datagram carries its own identity and integrity
// check, so the receiver can tally it without a side table:
//
//	[0:8]   sequence number (little-endian)
//	[8:16]  scheduled send time, ns since the run's base instant
//	[16:20] CRC-32 (IEEE) over [0:16] and the body
//	[20:]   body: one of nBodies seeded random bodies, chosen by seq
const (
	hdrLen  = 20
	nBodies = 1024
)

// inputs are the seeded datagram bodies a run sends; the same seed gives
// the same bodies.
type inputs struct {
	size   int
	bodies [][]byte
}

func newInputs(seed int64, size int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{size: size, bodies: make([][]byte, nBodies)}
	for i := range in.bodies {
		in.bodies[i] = make([]byte, size-hdrLen)
		rng.Read(in.bodies[i])
	}
	return in
}

// fill writes datagram seq, scheduled at ts, into dst (len == size).
func (in *inputs) fill(dst []byte, seq uint64, ts int64) {
	binary.LittleEndian.PutUint64(dst[0:], seq)
	binary.LittleEndian.PutUint64(dst[8:], uint64(ts))
	copy(dst[hdrLen:], in.bodies[seq%nBodies])
	crc := crc32.Update(crc32.ChecksumIEEE(dst[:16]), crc32.IEEETable, dst[hdrLen:])
	binary.LittleEndian.PutUint32(dst[16:], crc)
}

// intact reports whether msg is a well-formed datagram from this run and
// returns its sequence number and scheduled send time.
func (in *inputs) intact(msg []byte) (seq uint64, ts int64, ok bool) {
	if len(msg) != in.size {
		return 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(msg[0:])
	ts = int64(binary.LittleEndian.Uint64(msg[8:]))
	crc := crc32.Update(crc32.ChecksumIEEE(msg[:16]), crc32.IEEETable, msg[hdrLen:])
	if crc != binary.LittleEndian.Uint32(msg[16:]) || !bytes.Equal(msg[hdrLen:], in.bodies[seq%nBodies]) {
		return 0, 0, false
	}
	return seq, ts, true
}

// hist is a log-linear histogram of nanosecond durations: exact below
// 256 ns, then 128 buckets per power of two (relative error under 0.8%),
// clamped at 2^40 ns. Fixed memory, no allocation per sample.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	histSub    = 128
	histMaxExp = 40
)

func newHist() *hist {
	return &hist{counts: make([]uint64, 2*histSub+(histMaxExp-8)*histSub)}
}

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u >= 1<<histMaxExp {
		u = 1<<histMaxExp - 1
	}
	if u < 2*histSub {
		return int(u)
	}
	e := bits.Len64(u) - 8 // u>>e lies in [128, 256)
	return 2*histSub + (e-1)*histSub + int(u>>e) - histSub
}

func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	i -= 2 * histSub
	e := i/histSub + 1
	m := i%histSub + histSub
	return (float64(m) + 0.5) * float64(uint64(1)<<e)
}

func (h *hist) add(d time.Duration) {
	h.counts[histBucket(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := uint64(q*float64(h.n) + 0.5)
	if target < 1 {
		target = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

// tally is the receiver of one block: it checks every delivered datagram
// and keeps the delivery statistics of the block's measured window
// [from, to), in ns since the block's base instant. onMessage runs on the
// receiving connection's event loop; the fields other than delivered are
// read only after that connection has reached its terminal state.
type tally struct {
	in       *inputs
	base     time.Time
	from, to int64
	credits  chan int64 // closed loop: delivery instants handed back to the generator

	delivered atomic.Int64 // distinct intact datagrams
	seen      []uint64     // bitset over sequence numbers
	dup       int
	corrupt   int

	lat        *hist // datagrams scheduled inside the window
	met        int   // of those, delivered within the deadline
	deliveries int   // datagrams delivered inside the window
}

func newTally(in *inputs, base time.Time, from, to int64, credits chan int64) *tally {
	return &tally{in: in, base: base, from: from, to: to, credits: credits, seen: make([]uint64, 1<<12), lat: newHist()}
}

func (t *tally) inWindow(ts int64) bool { return ts >= t.from && ts < t.to }

func (t *tally) onMessage(msg []byte) {
	now := int64(time.Since(t.base))
	seq, ts, ok := t.in.intact(msg)
	if !ok {
		t.corrupt++
		return
	}
	w := seq / 64
	for w >= uint64(len(t.seen)) {
		t.seen = append(t.seen, make([]uint64, len(t.seen))...)
	}
	if t.seen[w]&(1<<(seq%64)) != 0 {
		t.dup++
		return
	}
	t.seen[w] |= 1 << (seq % 64)
	t.delivered.Add(1)
	if t.inWindow(ts) {
		lat := time.Duration(now - ts)
		t.lat.add(lat)
		if lat <= deadline {
			t.met++
		}
	}
	if t.inWindow(now) {
		t.deliveries++
	}
	if t.credits != nil {
		select {
		case t.credits <- now:
		default:
		}
	}
}
