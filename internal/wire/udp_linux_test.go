//go:build linux && (amd64 || arm64)

package wire

import (
	"net"
	"net/netip"
	"syscall"
	"testing"
	"time"

	"minion/internal/buf"
)

// TestUDPListenerBatching pins the listener side onto the batched path
// the connected side uses: a kernel-queued burst is received, and a
// loop turn's SendTos are sent, in udpBatch-sized syscalls.
func TestUDPListenerBatching(t *testing.T) {
	const k = 64
	loopback := func() *net.UDPConn {
		nc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatalf("ListenUDP: %v", err)
		}
		return nc
	}
	addrOf := func(nc *net.UDPConn) netip.AddrPort { return nc.LocalAddr().(*net.UDPAddr).AddrPort() }

	t.Run("recv", func(t *testing.T) {
		rx, tx := loopback(), loopback()
		defer tx.Close()
		for i := 0; i < k; i++ {
			if _, err := tx.WriteToUDPAddrPort([]byte{byte(i)}, addrOf(rx)); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		before := ReadIOStats()
		pc := NewUDPPacketConn(rx, UDPConfig{})
		defer pc.Close()
		got := make(chan struct{}, k)
		pc.OnPacket(func(b *buf.Buffer, _ netip.AddrPort) {
			b.Release()
			got <- struct{}{}
		})
		for i := 0; i < k; i++ {
			select {
			case <-got:
			case <-time.After(5 * time.Second):
				t.Fatalf("received %d/%d datagrams", i, k)
			}
		}
		if calls := ReadIOStats().UDPRecvCalls - before.UDPRecvCalls; calls > 2 {
			t.Fatalf("%d queued datagrams took %d receive syscalls, want <= 2", k, calls)
		}
	})

	t.Run("send", func(t *testing.T) {
		rx := loopback()
		defer rx.Close()
		pc := NewUDPPacketConn(loopback(), UDPConfig{})
		defer pc.Close()
		before := ReadIOStats()
		pc.Do(func() {
			for i := 0; i < k; i++ {
				pc.SendTo(buf.From([]byte{byte(i)}), addrOf(rx))
			}
		})
		rx.SetReadDeadline(time.Now().Add(5 * time.Second))
		for i := 0; i < k; i++ {
			if _, err := rx.Read(make([]byte, 16)); err != nil {
				t.Fatalf("received %d/%d datagrams: %v", i, k, err)
			}
		}
		if calls := ReadIOStats().UDPSendCalls - before.UDPSendCalls; calls > 2 {
			t.Fatalf("%d SendTos in one callback took %d send syscalls, want <= 2", k, calls)
		}
	})
}

// TestUDPSockaddrZoneRoundTrip: a zoned destination encodes its zone as
// the scope id and decodes back to the interface name, the form
// ReadFromUDPAddrPort reports.
func TestUDPSockaddrZoneRoundTrip(t *testing.T) {
	lo, err := net.InterfaceByIndex(1)
	if err != nil {
		t.Skipf("no interface 1: %v", err)
	}
	ap := netip.MustParseAddrPort("[fe80::1%" + lo.Name + "]:4242")
	var sa syscall.RawSockaddrInet6
	var enc, dec zoneCache
	for round := 0; round < 2; round++ { // a cold cache, then a warm one
		if n := encodeSockaddr(&sa, syscall.AF_INET6, ap, &enc); n != syscall.SizeofSockaddrInet6 || sa.Scope_id != 1 {
			t.Fatalf("round %d encode: namelen %d scope %d, want %d and 1", round, n, sa.Scope_id, syscall.SizeofSockaddrInet6)
		}
		if got := decodeSockaddr(&sa, &dec); got != ap {
			t.Fatalf("round %d decode: %v, want %v", round, got, ap)
		}
	}
	if enc.ifi.Name != lo.Name || dec.ifi.Index != 1 {
		t.Fatalf("caches hold %q and %d, want %q and 1", enc.ifi.Name, dec.ifi.Index, lo.Name)
	}
}
