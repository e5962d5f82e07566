package wire

import (
	"bytes"
	"net"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// Admission-control tests: the resource governor metering wire queue
// bytes, and the listener accept-pause that engages at the high
// watermark and releases below the low one.

// waitCond polls f for up to 5s.
func waitCond(t *testing.T, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestGovernorMetersConnBytes checks that every I/O shape charges its
// queued bytes to the governor and that the ledger returns to zero when
// the connections tear down.
func TestGovernorMetersConnBytes(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			g := buf.NewGovernor(buf.GovernorConfig{LimitBytes: 64 << 20})
			a, b := lifecyclePair(t, mode, Config{NoDelay: true, Governor: g})
			payload := bytes.Repeat([]byte{0x5a}, 96*1024)
			a.Do(func() {
				for off := 0; off < len(payload); off += 16 * 1024 {
					if _, err := a.WriteMsgBuf(buf.From(payload[off:off+16*1024]), tcp.WriteOptions{}); err != nil {
						t.Errorf("WriteMsgBuf: %v", err)
					}
				}
			})
			// In-flight bytes (a's send queue, then b's receive queue) must
			// show up on the ledger.
			waitCond(t, "governor usage", func() bool { return g.Used() > 0 })
			got := collect(t, b, len(payload))
			if !bytes.Equal(got, payload) {
				t.Fatal("payload corrupted")
			}
			a.Close()
			b.Close()
			waitCond(t, "ledger back to zero", func() bool { return g.Used() == 0 })
		})
	}
}

// TestAcceptPauseSingleSocket drives the portable blocking accept loop
// through a governor overload episode: accepting pauses at the high
// watermark (the dialed connection waits in the kernel backlog), and
// resumes — delivering the connection — once usage drains below low.
func TestAcceptPauseSingleSocket(t *testing.T) {
	g := buf.NewGovernor(buf.GovernorConfig{LimitBytes: 1000, HighWaterFrac: 0.8, LowWaterFrac: 0.5})
	ln, err := Listen("tcp", "127.0.0.1:0", Config{Governor: g})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	if ln.Sharded() {
		t.Fatal("expected single-socket shape without a group")
	}
	before := ReadIOStats()

	g.Adjust(900) // over high water: accepting must pause
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	waitCond(t, "accept pause counted", func() bool {
		return ReadIOStats().AcceptPauses > before.AcceptPauses
	})
	select {
	case r := <-ch:
		t.Fatalf("accept delivered during overload: %v %v", r.c, r.err)
	case <-time.After(100 * time.Millisecond):
	}

	g.Adjust(-900) // below low water: accepting resumes
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Accept after resume: %v", r.err)
		}
		r.c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("accept did not resume after drain")
	}
	if got := ReadIOStats(); got.AcceptResumes <= before.AcceptResumes {
		t.Fatalf("no accept resume counted (pauses %d->%d resumes %d->%d)",
			before.AcceptPauses, got.AcceptPauses, before.AcceptResumes, got.AcceptResumes)
	}
}

// TestAcceptPauseSharded is the same episode on the SO_REUSEPORT-sharded
// accept path: the shard whose socket received the connection parks on
// its re-check timer instead of draining its kernel queue.
func TestAcceptPauseSharded(t *testing.T) {
	if !pollSupported {
		t.Skip("no poller")
	}
	g := buf.NewGovernor(buf.GovernorConfig{LimitBytes: 1000, HighWaterFrac: 0.8, LowWaterFrac: 0.5})
	grp := NewGroup(2)
	defer grp.Close()
	ln, err := Listen("tcp", "127.0.0.1:0", Config{Group: grp, Governor: g})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	if !ln.Sharded() {
		t.Skip("sharded accept unavailable")
	}
	before := ReadIOStats()

	g.Adjust(900)
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()

	waitCond(t, "shard accept pause counted", func() bool {
		return ReadIOStats().AcceptPauses > before.AcceptPauses
	})
	select {
	case r := <-ch:
		t.Fatalf("sharded accept delivered during overload: %v %v", r.c, r.err)
	case <-time.After(100 * time.Millisecond):
	}

	g.Adjust(-900)
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Accept after resume: %v", r.err)
		}
		r.c.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("sharded accept did not resume after drain")
	}
	waitCond(t, "shard accept resume counted", func() bool {
		return ReadIOStats().AcceptResumes > before.AcceptResumes
	})
}
