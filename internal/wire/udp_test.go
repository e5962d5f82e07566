package wire

import (
	"bytes"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"minion/internal/buf"
)

// TestUDPSourceAddrParity: the source address the socket core delivers to
// OnPacket — decoded from recvmmsg's per-slot names on Linux — equals
// what ReadFromUDPAddrPort reports for the same sender, including the
// IPv4-mapped form on a dual-stack socket. The uTCP listener keys its
// demux table on these addresses. Datagrams queue in the kernel before
// the socket is wrapped, so on batching platforms they must also arrive
// through the batch path: one receive for the lot (the bound allows one
// stray call).
func TestUDPSourceAddrParity(t *testing.T) {
	for _, tc := range []struct {
		name          string
		rxNet, rxAddr string
		txNet, txAddr string
		dst           string // the receiver's host as the sender sees it
	}{
		{"udp4", "udp4", "127.0.0.1:0", "udp4", "127.0.0.1:0", "127.0.0.1"},
		{"udp6", "udp6", "[::1]:0", "udp6", "[::1]:0", "::1"},
		{"ipv4-to-dual-stack", "udp", "[::]:0", "udp4", "127.0.0.1:0", "127.0.0.1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			listen := func(network, addr string) *net.UDPConn {
				ua, err := net.ResolveUDPAddr(network, addr)
				if err != nil {
					t.Skipf("%s %s: %v", network, addr, err)
				}
				nc, err := net.ListenUDP(network, ua)
				if err != nil {
					t.Skipf("%s %s: %v", network, addr, err)
				}
				return nc
			}
			rx, ref, tx := listen(tc.rxNet, tc.rxAddr), listen(tc.rxNet, tc.rxAddr), listen(tc.txNet, tc.txAddr)
			defer ref.Close()
			defer tx.Close()
			to := func(c *net.UDPConn) netip.AddrPort {
				return netip.AddrPortFrom(netip.MustParseAddr(tc.dst), c.LocalAddr().(*net.UDPAddr).AddrPort().Port())
			}
			const k = 4
			for i := 0; i < k; i++ {
				if _, err := tx.WriteToUDPAddrPort([]byte{byte(i)}, to(rx)); err != nil {
					t.Skipf("send: %v", err)
				}
			}
			if _, err := tx.WriteToUDPAddrPort([]byte{0}, to(ref)); err != nil {
				t.Skipf("send: %v", err)
			}
			ref.SetReadDeadline(time.Now().Add(5 * time.Second))
			_, want, err := ref.ReadFromUDPAddrPort(make([]byte, 16))
			if err != nil {
				t.Fatalf("reference read: %v", err)
			}

			before := ReadIOStats()
			pc := NewUDPPacketConn(rx, UDPConfig{})
			defer pc.Close()
			got := make(chan netip.AddrPort, k)
			pc.OnPacket(func(b *buf.Buffer, from netip.AddrPort) {
				b.Release()
				got <- from
			})
			for i := 0; i < k; i++ {
				select {
				case from := <-got:
					if from != want {
						t.Fatalf("OnPacket source %v, ReadFromUDPAddrPort %v", from, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("received %d/%d datagrams", i, k)
				}
			}
			if calls := ReadIOStats().UDPRecvCalls - before.UDPRecvCalls; udpBatch > 1 && calls > 2 {
				t.Fatalf("%d queued datagrams took %d receive syscalls, want one batch", k, calls)
			}
		})
	}
}

// TestUDPLargeDatagramIntegrity walks the reader through its receive
// modes — the platform slots, pooled arenas while datagrams over half a
// slot flow (handed off zero-copy, or copied when small), and back — one
// datagram per round and then in a burst. Every datagram must arrive
// intact, and Close must return the spare arenas to the pool.
func TestUDPLargeDatagramIntegrity(t *testing.T) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	tx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer tx.Close()
	before := buf.Stats()
	pc := NewUDPPacketConn(rx, UDPConfig{})
	got := make(chan []byte, 16)
	pc.OnPacket(func(b *buf.Buffer, _ netip.AddrPort) {
		got <- b.Copy()
		b.Release()
	})
	to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	payload := func(size int) []byte {
		p := make([]byte, size)
		for i := range p {
			p[i] = byte(i*7 + size)
		}
		return p
	}
	check := func(size int) {
		t.Helper()
		select {
		case p := <-got:
			if !bytes.Equal(p, payload(size)) {
				t.Fatalf("datagram of %d bytes arrived as %d bytes or corrupted", size, len(p))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("datagram of %d bytes lost", size)
		}
	}
	sizes := []int{100, 40000, 60000, 200, 50000, 65000, 300, 0, 33000}
	for _, size := range sizes {
		if _, err := tx.WriteToUDPAddrPort(payload(size), to); err != nil {
			t.Fatalf("send %d: %v", size, err)
		}
		check(size)
	}
	for _, size := range sizes {
		if _, err := tx.WriteToUDPAddrPort(payload(size), to); err != nil {
			t.Fatalf("send %d: %v", size, err)
		}
	}
	for _, size := range sizes {
		check(size)
	}
	pc.Close()
	waitBufBalance(t, before)
}

// testGoid returns the calling goroutine's id, parsed from the stack
// header ("goroutine N [running]:").
func testGoid() int64 {
	var b [32]byte
	s := strings.TrimPrefix(string(b[:runtime.Stack(b[:], false)]), "goroutine ")
	id, _ := strconv.ParseInt(s[:strings.IndexByte(s, ' ')], 10, 64)
	return id
}

// TestUDPHandOffInlineWhenIdle: on an idle loop the reader delivers a
// received batch itself, with no event-goroutine wake-up; on a busy loop
// the batch queues behind the work in hand and the event goroutine
// delivers it afterwards.
func TestUDPHandOffInlineWhenIdle(t *testing.T) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	tx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer tx.Close()
	before := buf.Stats()
	pc := NewUDPPacketConn(rx, UDPConfig{})
	type delivery struct {
		gid       int64
		afterBusy bool
	}
	got := make(chan delivery, 16)
	busyDone := false // loop-confined
	pc.OnPacket(func(b *buf.Buffer, _ netip.AddrPort) {
		b.Release()
		got <- delivery{testGoid(), busyDone}
	})
	evCh := make(chan int64, 1)
	pc.Post(func() { evCh <- testGoid() }) // Post never runs on the caller
	ev := <-evCh
	to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	send := func() {
		t.Helper()
		if _, err := tx.WriteToUDPAddrPort([]byte("x"), to); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	recv := func() delivery {
		t.Helper()
		select {
		case d := <-got:
			return d
		case <-time.After(5 * time.Second):
			t.Fatal("datagram lost")
			return delivery{}
		}
	}

	// Idle: delivered on the reader goroutine. A loaded host may leave
	// the event goroutine unparked for a moment, so allow a few tries.
	inline := false
	for try := 0; try < 5 && !inline; try++ {
		time.Sleep(20 * time.Millisecond)
		send()
		d := recv()
		if d.gid == testGoid() {
			t.Fatal("datagram delivered on the test goroutine")
		}
		inline = d.gid != ev
	}
	if !inline {
		t.Fatal("datagram on an idle loop never delivered on the reader goroutine")
	}

	// Busy: queued behind the callback holding the loop.
	entered, release := make(chan struct{}), make(chan struct{})
	pc.Post(func() { close(entered); <-release; busyDone = true })
	<-entered
	send()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("datagram delivered while another callback held the loop")
	default:
	}
	close(release)
	if d := recv(); d.gid != ev || !d.afterBusy {
		t.Fatalf("busy loop: delivered on goroutine %d (event goroutine %d), after the busy callback: %v", d.gid, ev, d.afterBusy)
	}
	pc.Close()
	waitBufBalance(t, before)
}

// TestUDPCloseFromDelivery: a delivery callback may close its own socket.
// On an idle loop the delivery runs on the reader goroutine, so Close
// must not wait there for the reader to exit.
func TestUDPCloseFromDelivery(t *testing.T) {
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	tx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer tx.Close()
	before := buf.Stats()
	pc := NewUDPPacketConn(rx, UDPConfig{})
	closed := make(chan struct{})
	var once sync.Once
	pc.OnPacket(func(b *buf.Buffer, _ netip.AddrPort) {
		b.Release()
		once.Do(func() {
			pc.Close()
			close(closed)
		})
	})
	time.Sleep(20 * time.Millisecond) // let the loop go idle
	if _, err := tx.WriteToUDPAddrPort([]byte("x"), rx.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close from a delivery callback deadlocked")
	}
	pc.Close() // idempotent
	waitBufBalance(t, before)
}
