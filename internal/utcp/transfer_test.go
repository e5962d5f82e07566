package utcp

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"minion/internal/tcp"
	"minion/internal/wire"
)

// TestTransferBudgetUnderLoss pins the real-UDP uTCP datapath: 2000
// messages of 1000 B stream from a dialed client into an unordered
// endpoint while a seeded 3% of data datagrams are dropped. Three ratios
// must hold, each with room for run-to-run noise around its reading on a
// 2-vCPU host:
//
//   - heap allocations per datagram, counted process-wide over the
//     transfer (read 11.0–11.1), the zero-copy discipline on real sockets;
//   - retransmitted per sent data segment (read 0.044), ARQ efficiency
//     at the pinned loss rate;
//   - out-of-order deliveries per received segment (read 0.56), gated
//     from below: a collapse means unordered delivery stopped engaging
//     and head-of-line blocking came back.
func TestTransferBudgetUnderLoss(t *testing.T) {
	leakCheck(t)
	const (
		msgs     = 2000
		msgBytes = 1000
		total    = msgs * msgBytes
		loss     = 0.03
		seed     = 42

		maxAllocsPerDatagram = 11.6
		maxRetransmitRatio   = 0.086
		minOOORatio          = 0.26
	)

	cli, ep, _ := dialLoopback(t, tcp.Config{NoDelay: true}, tcp.Config{Unordered: true, NoDelay: true})
	// The handshake runs on a clean wire, so the measured interval is all
	// data path.
	waitEstablished(t, cli)

	// Receiver: count each byte's first coverage; done at full coverage.
	covered := make([]bool, total)
	coveredBytes := 0
	done := make(chan struct{})
	ep.Do(func() {
		sc := ep.Conn()
		sc.OnReadable(func() {
			for {
				d, err := sc.ReadUnordered()
				if err != nil {
					break
				}
				for i := range d.Data {
					if off := int(d.Offset) + i; off < total && !covered[off] {
						covered[off] = true
						coveredBytes++
					}
				}
				d.Release()
			}
			if coveredBytes >= total {
				select {
				case <-done:
				default:
					close(done)
				}
			}
		})
	})

	// Seeded Bernoulli loss on data-sized datagrams only: ACKs and the
	// teardown ride clean.
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(size int) (int, error) {
		if size <= 400 {
			return 0, nil
		}
		mu.Lock()
		drop := rng.Float64() < loss
		mu.Unlock()
		if drop {
			return 0, syscall.ECONNREFUSED
		}
		return 0, nil
	}})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	payload := make([]byte, msgBytes)
	for i := 0; i < msgs; i++ {
		for {
			var err error
			cli.Do(func() {
				_, err = cli.Conn().WriteMsg(payload, tcp.WriteOptions{Tag: tcp.TagDefault})
			})
			if err == nil {
				break
			}
			if err != tcp.ErrWouldBlock {
				t.Fatalf("WriteMsg %d: %v", i, err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		var got int
		ep.Do(func() { got = coveredBytes })
		t.Fatalf("transfer stalled: %d/%d bytes", got, total)
	}
	runtime.ReadMemStats(&after)
	wire.SetFaultHooks(nil)

	var snd, rcv tcp.Stats
	var datagrams int64
	cli.Do(func() {
		snd = cli.Conn().Stats()
		datagrams += cli.Binding().Stats().PacketsOut
	})
	ep.Do(func() {
		rcv = ep.Conn().Stats()
		datagrams += ep.Binding().Stats().PacketsOut
	})
	if datagrams == 0 || snd.SegsSent == 0 || rcv.SegsReceived == 0 {
		t.Fatalf("no traffic counted: datagrams=%d sent=%d received=%d", datagrams, snd.SegsSent, rcv.SegsReceived)
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(datagrams)
	retrans := float64(snd.SegsRetrans) / float64(snd.SegsSent)
	ooo := float64(rcv.DeliveredOOO) / float64(rcv.SegsReceived)
	t.Logf("%d datagrams: %.2f allocs/datagram, retransmit ratio %.3f, out-of-order ratio %.3f",
		datagrams, allocs, retrans, ooo)
	if !raceEnabled && allocs > maxAllocsPerDatagram {
		t.Errorf("%.2f allocs/datagram, budget %.1f", allocs, maxAllocsPerDatagram)
	}
	if retrans > maxRetransmitRatio {
		t.Errorf("retransmit ratio %.3f, ceiling %.3f", retrans, maxRetransmitRatio)
	}
	if ooo < minOOORatio {
		t.Errorf("out-of-order ratio %.3f, floor %.2f: unordered delivery disengaged", ooo, minOOORatio)
	}
	gracefulClose(t, cli, ep)
}
