package minion

import (
	"testing"
	"time"

	"minion/internal/sim"
)

// The allocation benchmarks measure the steady-state cost of one datagram
// traversing the full stack — app → frame/seal → (u)TCP segment build →
// netem link → receiver reassembly → record extraction → app callback —
// which is the hot path the zero-copy buffer layer (internal/buf) exists
// for. Run with -benchmem; bench/BASELINE.md records the pre- and
// post-refactor numbers.

// hotPair builds an established pair with an ideal (zero-delay, infinite
// rate) path so the measurement isolates protocol CPU/allocation cost.
func hotPair(tb testing.TB, proto Protocol) (*sim.Simulator, *Pair) {
	tb.Helper()
	s := sim.New(42)
	pair := NewPair(s, proto, TCPConfig{NoDelay: true}, nil, nil)
	s.RunUntil(2 * time.Second)
	return s, pair
}

// runDatagrams pushes n datagrams of size bytes through the pair one at a
// time, running the simulator after each send so every datagram completes
// the full send→deliver round trip (including ACK processing).
func runDatagrams(tb testing.TB, s *sim.Simulator, pair *Pair, n, size int) {
	tb.Helper()
	delivered := 0
	pair.B.OnMessage(func([]byte) { delivered++ })
	msg := make([]byte, size)
	for i := 0; i < n; i++ {
		if err := pair.A.Send(msg, Options{}); err != nil {
			tb.Fatalf("Send: %v", err)
		}
		s.Run()
	}
	if delivered != n {
		tb.Fatalf("delivered %d/%d datagrams", delivered, n)
	}
}

func benchHotPath(b *testing.B, proto Protocol, size int) {
	s, pair := hotPair(b, proto)
	// Warm up pools and any lazily-built state before measuring.
	runDatagrams(b, s, pair, 32, size)
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	runDatagrams(b, s, pair, b.N, size)
}

func BenchmarkHotPathUCOBSuTCP(b *testing.B)      { benchHotPath(b, ProtoUCOBSuTCP, 1000) }
func BenchmarkHotPathUCOBSuTCPSmall(b *testing.B) { benchHotPath(b, ProtoUCOBSuTCP, 64) }
func BenchmarkHotPathUCOBSTCP(b *testing.B)       { benchHotPath(b, ProtoUCOBSTCP, 1000) }
func BenchmarkHotPathUTLSuTCP(b *testing.B)       { benchHotPath(b, ProtoUTLSuTCP, 1000) }
func BenchmarkHotPathUTLSTCP(b *testing.B)        { benchHotPath(b, ProtoUTLSTCP, 1000) }
func BenchmarkHotPathUDP(b *testing.B)            { benchHotPath(b, ProtoUDP, 1000) }

// allocsPerDatagram reports the average allocations for one full
// send→deliver round trip on an established connection.
func allocsPerDatagram(t *testing.T, proto Protocol, size int) float64 {
	s, pair := hotPair(t, proto)
	runDatagrams(t, s, pair, 32, size) // warm-up
	const batch = 16
	return testing.AllocsPerRun(50, func() {
		runDatagrams(t, s, pair, batch, size)
	}) / batch
}

// TestAllocsHotPath pins the allocation budget of every stack's datagram
// path at 1000 B. The pre-refactor datapath cost 31 (uCOBS/uTCP) and 43
// (uTLS/uTCP) allocs per datagram; bench/BASELINE.md records how the
// pooled buffer layer and MSS-aware record sizing brought them down. Each
// budget is the measured value plus half an allocation, so one extra
// allocation per datagram on any stack fails. The race detector's
// instrumentation allocates, so the counts only hold without it.
func TestAllocsHotPath(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, tc := range []struct {
		proto  Protocol
		budget float64
	}{
		{ProtoUDP, 3.5},
		{ProtoUCOBSTCP, 12.5},
		{ProtoUCOBSuTCP, 13.5},
		{ProtoUTLSTCP, 12.5},
		{ProtoUTLSuTCP, 12.5},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			got := allocsPerDatagram(t, tc.proto, 1000)
			if got > tc.budget {
				t.Errorf("%v hot path: %.1f allocs/datagram, budget %.1f", tc.proto, got, tc.budget)
			}
			t.Logf("%v hot path: %.1f allocs/datagram", tc.proto, got)
		})
	}
}
