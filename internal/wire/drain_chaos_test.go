package wire

import (
	"bytes"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// TestChaosDrainDuringFaultStorm races a graceful teardown — listener
// drain, then group shutdown — against an active FaultHooks error storm
// (spurious EAGAINs, connection resets, accept-time fd exhaustion). The
// drain must complete within its deadline regardless, DrainStats must
// reconcile (Flushed + Aborted == Conns), and every connection must
// report a terminal error exactly once: the per-conn outcomes the
// aggregate stats are summed from.
func TestChaosDrainDuringFaultStorm(t *testing.T) {
	for _, mode := range []string{"shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			chaosCheck(t)
			grp := newGroup(2, mode == "poll")
			ln, err := Listen("tcp", "127.0.0.1:0", Config{Group: grp, NoDelay: true})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}

			const flows = 12
			var mu sync.Mutex
			var accepted []*Conn
			errCounts := make(map[*Conn]*atomic.Int64)
			acceptDone := make(chan struct{})
			go func() {
				defer close(acceptDone)
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					cnt := &atomic.Int64{}
					mu.Lock()
					accepted = append(accepted, c)
					errCounts[c] = cnt
					mu.Unlock()
					c.Do(func() {
						c.OnError(func(error) { cnt.Add(1) })
					})
				}
			}()

			payload := bytes.Repeat([]byte{0xd7}, 4096)
			var clients []net.Conn
			for i := 0; i < flows; i++ {
				nc, err := net.Dial("tcp", ln.Addr().String())
				if err != nil {
					t.Fatalf("dial %d: %v", i, err)
				}
				clients = append(clients, nc)
			}
			defer func() {
				for _, nc := range clients {
					nc.Close()
				}
			}()
			waitCond(t, "all flows accepted", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(accepted) == flows
			})
			mu.Lock()
			conns := append([]*Conn(nil), accepted...)
			mu.Unlock()
			// Give every connection queued work for the drain to flush.
			for _, c := range conns {
				if _, err := c.WriteMsgBuf(buf.From(payload), tcp.WriteOptions{}); err != nil {
					t.Fatalf("WriteMsgBuf: %v", err)
				}
			}

			// Storm on: spurious wakeups on both directions, the odd hard
			// reset, and fd exhaustion at the accept seam.
			var reads, writes, accepts atomic.Uint64
			SetFaultHooks(&FaultHooks{
				Read: func(size int) (int, error) {
					switch n := reads.Add(1); {
					case n%31 == 0:
						return 0, syscall.ECONNRESET
					case n%6 == 0:
						return 0, syscall.EAGAIN
					}
					return 0, nil
				},
				Write: func(size int) (int, error) {
					switch n := writes.Add(1); {
					case n%37 == 0:
						return 0, syscall.ECONNRESET
					case n%5 == 0:
						return 0, syscall.EAGAIN
					}
					return 0, nil
				},
				Accept: func() error {
					if accepts.Add(1)%2 == 0 {
						return syscall.EMFILE
					}
					return nil
				},
			})
			time.Sleep(50 * time.Millisecond) // let the storm bite

			// Listener drain races the storm and must finish in-deadline.
			dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer dcancel()
			start := time.Now()
			if err := ln.Drain(dctx); err != nil {
				t.Fatalf("Listener.Drain under storm: %v (after %v)", err, time.Since(start))
			}
			<-acceptDone

			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			st := grp.Shutdown(sctx)
			if st.Conns != flows {
				t.Fatalf("DrainStats.Conns = %d, want %d", st.Conns, flows)
			}
			if st.Flushed+st.Aborted != st.Conns {
				t.Fatalf("DrainStats does not reconcile: Flushed %d + Aborted %d != Conns %d",
					st.Flushed, st.Aborted, st.Conns)
			}
			// Peers hang up so the receive sides see EOF and teardown runs
			// now rather than at the close linger.
			for _, nc := range clients {
				nc.Close()
			}
			// Per-conn outcomes: exactly one terminal error each, summing to
			// the aggregate the stats report.
			waitCond(t, "terminal error per connection", func() bool {
				total := int64(0)
				for _, c := range conns {
					total += errCounts[c].Load()
				}
				return total >= flows
			})
			for i, c := range conns {
				if n := errCounts[c].Load(); n != 1 {
					t.Fatalf("conn %d reported %d terminal errors, want exactly 1", i, n)
				}
			}
		})
	}
}
