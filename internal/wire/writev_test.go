package wire

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// TestWritevCoalescing pins the vectored write path: records queued in
// one loop turn leave in one writev, on a polled connection (the loop
// flushes after the turn) and on a goroutine-pair connection (the writer
// takes everything queued when it wakes). Each round queues a window of
// 16 records and waits until the peer has read them, so the process
// issues ceil(n/16) writes for n records; 15% slack absorbs a writer
// that wakes between two records of a window. A write path that sends
// one buffer per writev costs 16 times that. The race detector slows
// each queued record enough that the goroutine-pair writer routinely
// wakes mid-window, so that arm runs without it only.
func TestWritevCoalescing(t *testing.T) {
	const (
		window  = 16
		rounds  = 40
		recSize = 200
		n       = window * rounds
	)
	for _, mode := range []string{"poll", "dedicated"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "dedicated" && raceEnabled {
				t.Skip("writer wake-ups split windows under -race")
			}
			a, b := lifecyclePair(t, mode, Config{NoDelay: true})
			var read atomic.Int64
			b.Do(func() {
				p := make([]byte, 4096)
				b.OnReadable(func() {
					for {
						m, _ := b.Read(p)
						if m == 0 {
							return
						}
						read.Add(int64(m))
					}
				})
			})
			rec := make([]byte, recSize)
			before := ReadIOStats().TCPWriteCalls
			for r := 1; r <= rounds; r++ {
				a.Do(func() {
					for i := 0; i < window; i++ {
						if _, err := a.WriteMsgBuf(buf.From(rec), tcp.WriteOptions{}); err != nil {
							t.Errorf("WriteMsgBuf: %v", err)
						}
					}
				})
				want := int64(r * window * recSize)
				deadline := time.Now().Add(5 * time.Second)
				for read.Load() < want {
					if time.Now().After(deadline) {
						t.Fatalf("round %d: peer read %d of %d bytes", r, read.Load(), want)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
			writes := ReadIOStats().TCPWriteCalls - before
			limit := 1.15 * math.Ceil(float64(n)/window)
			t.Logf("%d records in %d writes (%.3f per record)", n, writes, float64(writes)/n)
			if float64(writes) > limit {
				t.Errorf("%d records took %d writes, want at most %.0f", n, writes, limit)
			}
		})
	}
}
