package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// pollSupported reports whether this platform has a readiness poller
// (epoll); poll arms skip without one.
const pollSupported = runtime.GOOS == "linux"

// pollPair returns two wire Conns joined by loopback TCP, both attached
// to polled groups (one per side, like a real client and server
// process). Skips the test where the platform has no poller.
func pollPair(t *testing.T, cfg Config) (*Conn, *Conn) {
	t.Helper()
	if !pollSupported {
		t.Skip("no readiness poller on this platform")
	}
	gA, gB := NewGroup(2), NewGroup(2)
	t.Cleanup(func() { gA.Close(); gB.Close() })
	cfgA, cfgB := cfg, cfg
	cfgA.Group, cfgB.Group = gA, gB
	a, b := pipePairCfg(t, cfgA, cfgB)
	if a.pl == nil || b.pl == nil {
		t.Fatalf("connections did not attach to a poller (a.pl=%v b.pl=%v)", a.pl != nil, b.pl != nil)
	}
	return a, b
}

func TestPollModeIsDefaultWhereSupported(t *testing.T) {
	g := NewGroup(1)
	defer g.Close()
	if g.Polled() != pollSupported {
		t.Fatalf("NewGroup polled = %v, want %v on %s", g.Polled(), pollSupported, runtime.GOOS)
	}
	// The test seam really runs without pollers, on every platform.
	g2 := newGroup(1, false)
	defer g2.Close()
	if g2.Polled() {
		t.Fatal("newGroup(n, false) runs pollers")
	}
}

func TestPollStreamRoundTrip(t *testing.T) {
	a, b := pollPair(t, Config{NoDelay: true})
	msg := bytes.Repeat([]byte("poll-loop-"), 1000)
	go func() {
		a.Do(func() {
			if n, err := a.Write(msg); err != nil || n != len(msg) {
				t.Errorf("Write: n=%d err=%v", n, err)
			}
		})
	}()
	got := collect(t, b, len(msg))
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(msg))
	}
}

func TestPollBackpressureAndIntegrity(t *testing.T) {
	// Many small writes against a small send budget: content must survive
	// partial writevs, EAGAIN parking, and EPOLLOUT resumption intact and
	// in order.
	a, b := pollPair(t, Config{SendBufBytes: 8 * 1024})
	const total = 128 * 1024
	sent := 0
	deadline := time.Now().Add(20 * time.Second)
	for sent < total {
		if time.Now().After(deadline) {
			t.Fatal("send stalled")
		}
		bb := buf.Get(1024)
		for i := range bb.Bytes() {
			bb.Bytes()[i] = byte(sent / 1024)
		}
		var err error
		a.Do(func() { _, err = a.WriteMsgBuf(bb, tcp.WriteOptions{}) })
		switch err {
		case nil:
			sent += 1024
		case tcp.ErrWouldBlock:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("WriteMsgBuf: %v", err)
		}
	}
	got := collect(t, b, total)
	for i, x := range got {
		if x != byte(i/1024) {
			t.Fatalf("byte %d = %#x, want %#x", i, x, byte(i/1024))
		}
	}
}

func TestPollGracefulCloseDeliversEOF(t *testing.T) {
	a, b := pollPair(t, Config{})
	msg := []byte("last polled words")
	a.Do(func() { a.Write(msg) })
	a.Close()
	got := collect(t, b, len(msg))
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		b.Do(func() { _, err = b.Read(make([]byte, 16)) })
		if err == io.EOF {
			break
		}
		if err != tcp.ErrWouldBlock {
			t.Fatalf("Read after close: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("EOF never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPollReceiveBudgetBackpressure(t *testing.T) {
	// A sender streaming into a receiver that consumes slowly must stall
	// on the receive budget (rStalled) and resume through Read's credit
	// path — the poll-mode flow-control loop, where no kernel edge will
	// ever re-fire for the stalled bytes.
	a, b := pollPair(t, Config{RecvBufBytes: 16 * 1024, NoDelay: true})
	const total = 512 * 1024
	go func() {
		sent := 0
		for sent < total {
			bb := buf.Get(8 * 1024)
			for i := range bb.Bytes() {
				bb.Bytes()[i] = byte((sent + i) % 251)
			}
			var err error
			a.Do(func() { _, err = a.WriteMsgBuf(bb, tcp.WriteOptions{}) })
			if err == tcp.ErrWouldBlock {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			sent += 8 * 1024
		}
	}()
	// Trickle-read on the loop: small reads, with pauses, so the budget
	// fills and drains repeatedly.
	got := 0
	deadline := time.Now().Add(30 * time.Second)
	for got < total {
		if time.Now().After(deadline) {
			t.Fatalf("stalled at %d/%d bytes", got, total)
		}
		b.Do(func() {
			p := make([]byte, 4096)
			for k := 0; k < 8; k++ {
				n, err := b.Read(p)
				if err != nil {
					return
				}
				for i := 0; i < n; i++ {
					if p[i] != byte((got+i)%251) {
						t.Errorf("byte %d corrupted", got+i)
						return
					}
				}
				got += n
			}
		})
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPollManyConnsOneGroupOrdered(t *testing.T) {
	// 32 connections multiplexed on a 2-loop poll group, each streaming
	// sequenced records; every connection's bytes must arrive in order
	// (per-lane FIFO + drain-order preservation in pollRead).
	if !pollSupported {
		t.Skip("no readiness poller on this platform")
	}
	g := NewGroup(2)
	defer g.Close()
	cfg := Config{NoDelay: true, Group: g}
	ln, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	const conns = 32
	const perConn = 64 * 1024
	var closeMu sync.Mutex
	var toClose []*Conn
	defer func() {
		closeMu.Lock()
		defer closeMu.Unlock()
		for _, c := range toClose {
			c.Close()
		}
	}()
	track := func(c *Conn) *Conn {
		closeMu.Lock()
		toClose = append(toClose, c)
		closeMu.Unlock()
		return c
	}
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ch := make(chan *Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					t.Errorf("Accept: %v", err)
					ch <- nil
					return
				}
				ch <- track(c)
			}()
			a, err := Dial("tcp", ln.Addr().String(), cfg)
			if err != nil {
				t.Errorf("conn %d: Dial: %v", id, err)
				<-ch
				return
			}
			track(a)
			b := <-ch
			if b == nil {
				return
			}
			go func() {
				pos := 0
				for pos < perConn {
					n := 1000
					if pos+n > perConn {
						n = perConn - pos
					}
					bb := buf.Get(n)
					for j := range bb.Bytes() {
						bb.Bytes()[j] = byte((pos + j) % 251)
					}
					var werr error
					a.Do(func() { _, werr = a.WriteMsgBuf(bb, tcp.WriteOptions{}) })
					if werr == tcp.ErrWouldBlock {
						time.Sleep(time.Millisecond)
						continue
					}
					if werr != nil {
						t.Errorf("conn %d: write: %v", id, werr)
						return
					}
					pos += n
				}
			}()
			got := collect(t, b, perConn)
			for j, x := range got {
				if x != byte(j%251) {
					t.Errorf("conn %d: byte %d = %#x, want %#x", id, j, x, byte(j%251))
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestPollStalledPeerParksWriter is the poll path's fairness proof: a
// peer that stops reading must (1) park its connection at zero write
// syscalls and (2) cost its loop-mates nothing — no stall on a healthy
// connection sharing the same loop — and (3) resume cleanly when the
// peer drains.
func TestPollStalledPeerParksWriter(t *testing.T) {
	if !pollSupported {
		t.Skip("no readiness poller on this platform")
	}
	// One loop on each side so the stalled and healthy connections are
	// guaranteed loop-mates.
	gA, gB := NewGroup(1), NewGroup(1)
	defer gA.Close()
	defer gB.Close()
	cfg := Config{NoDelay: true, SendBufBytes: 64 * 1024}
	cfgA, cfgB := cfg, cfg
	cfgA.Group, cfgB.Group = gA, gB
	ln, err := Listen("tcp", "127.0.0.1:0", cfgB)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	dialPair := func() (*Conn, *Conn) {
		ch := make(chan *Conn, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				ch <- nil
				return
			}
			ch <- c
		}()
		a, err := Dial("tcp", ln.Addr().String(), cfgA)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		b := <-ch
		if b == nil {
			t.Fatal("accept failed")
		}
		return a, b
	}
	// Small kernel buffers so the stall fills quickly.
	stalled, stalledPeer := dialPair()
	stalled.nc.(*net.TCPConn).SetWriteBuffer(16 * 1024)
	stalledPeer.nc.(*net.TCPConn).SetReadBuffer(16 * 1024)
	healthy, healthyPeer := dialPair()
	defer func() { healthy.Close(); healthyPeer.Close() }()

	// The healthy peer echoes everything back on its loop.
	healthyPeer.Do(func() {
		p := make([]byte, 4096)
		healthyPeer.OnReadable(func() {
			for {
				n, err := healthyPeer.Read(p)
				if n > 0 {
					healthyPeer.WriteMsgBuf(buf.From(p[:n]), tcp.WriteOptions{})
					continue
				}
				if err != nil {
					return
				}
			}
		})
	})

	// Stall: fill the stalled connection until the app queue rejects and
	// the peer has stopped reading. stalledPeer registers no reader, so it
	// pulls bytes off the socket only until its receive budget is spent;
	// from then on the kernel pipe fills too. Until then the peer keeps
	// opening room, and on a busy machine that draining can outlast any
	// fixed settling delay.
	fillDeadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(fillDeadline) {
			t.Skip("send path never filled (huge kernel buffers?)")
		}
		var err error
		stalled.Do(func() { _, err = stalled.WriteMsgBuf(buf.Get(4096), tcp.WriteOptions{}) })
		if err == tcp.ErrWouldBlock {
			var peerStalled bool
			stalledPeer.Do(func() { peerStalled = stalledPeer.rStalled })
			if peerStalled {
				break
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("fill: %v", err)
		}
	}
	// Give in-flight services a beat to hit EAGAIN and park.
	time.Sleep(200 * time.Millisecond)

	// (1) Parked means zero syscalls: over a quiet interval, the process
	// must issue no TCP writes at all (only the stalled conn has data).
	preQuiet := ReadIOStats()
	time.Sleep(300 * time.Millisecond)
	quietDelta := ReadIOStats().TCPWriteCalls - preQuiet.TCPWriteCalls
	if quietDelta > 2 {
		t.Errorf("stalled connection not parked: %d write syscalls during quiet interval", quietDelta)
	}

	// (2) Loop-mate latency: round trips on the healthy connection must
	// not absorb stalls from the parked conn.
	const rounds = 100
	lat := make([]time.Duration, 0, rounds)
	p := make([]byte, 64)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		echoed := make(chan struct{})
		healthy.Do(func() {
			healthy.OnReadable(func() {
				n, _ := healthy.Read(p)
				if n > 0 {
					healthy.OnReadable(nil)
					close(echoed)
				}
			})
			healthy.WriteMsgBuf(buf.From([]byte(fmt.Sprintf("ping-%d", i))), tcp.WriteOptions{})
		})
		select {
		case <-echoed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: echo never arrived", i)
		}
		lat = append(lat, time.Since(start))
	}
	// Median is robust against scheduler noise; a loopback round trip
	// takes well under a millisecond, so 20 ms means the loop stalled.
	sorted := append([]time.Duration(nil), lat...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	const stall = 20 * time.Millisecond
	if med := sorted[len(sorted)/2]; med >= stall {
		t.Errorf("healthy loop-mate median round trip %v >= %v: stalled peer is taxing the loop", med, stall)
	}

	// (3) Unpark: drain the stalled peer and the parked queue must flush
	// (EPOLLOUT edge -> pollWritable -> writev), recovering send budget.
	stalledPeer.Do(func() {
		pp := make([]byte, 32*1024)
		drain := func() {
			for {
				if _, err := stalledPeer.Read(pp); err != nil {
					return
				}
			}
		}
		stalledPeer.OnReadable(drain)
		drain()
	})
	recoverDeadline := time.Now().Add(10 * time.Second)
	for {
		var avail int
		stalled.Do(func() { avail = stalled.SendBufAvailable() })
		if avail == cfg.SendBufBytes {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatalf("parked queue never flushed after peer drain (available %d/%d)", avail, cfg.SendBufBytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stalled.Close()
	stalledPeer.Close()
}

// TestPollUnregisterOnCloseChurn opens and closes waves of poll-mode
// connections and asserts the pollers end with zero registrations — no
// leaked epoll entries, no leaked tokens — and that goroutine count does
// not scale with connections.
func TestPollUnregisterOnCloseChurn(t *testing.T) {
	if !pollSupported {
		t.Skip("no readiness poller on this platform")
	}
	g := NewGroup(2)
	defer g.Close()
	cfg := Config{NoDelay: true, Group: g}
	ln, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	// A sharded listener holds one registration per loop; connection churn
	// must return to that baseline, not to zero.
	base := g.pollRegistrations()
	for round := 0; round < 3; round++ {
		const waves = 24
		conns := make([]*Conn, 0, waves*2)
		accepted := make(chan *Conn, waves)
		go func() {
			for i := 0; i < waves; i++ {
				c, err := ln.Accept()
				if err != nil {
					accepted <- nil
					return
				}
				accepted <- c
			}
		}()
		for i := 0; i < waves; i++ {
			a, err := Dial("tcp", ln.Addr().String(), cfg)
			if err != nil {
				t.Fatalf("round %d: Dial: %v", round, err)
			}
			conns = append(conns, a)
		}
		for i := 0; i < waves; i++ {
			c := <-accepted
			if c == nil {
				t.Fatal("accept failed")
			}
			conns = append(conns, c)
		}
		if got := g.pollRegistrations(); got != base+waves*2 {
			t.Fatalf("round %d: %d registrations at full load, want %d", round, got, base+waves*2)
		}
		// Exchange a byte on each so teardown covers active connections.
		for i := 0; i < waves; i++ {
			a := conns[i]
			a.Do(func() { a.Write([]byte{byte(i)}) })
		}
		for _, c := range conns {
			c.Close()
		}
		// Teardown is asynchronous (Close returns immediately); every
		// registration must still drop before long.
		deadline := time.Now().Add(20 * time.Second)
		for g.pollRegistrations() != base {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d poller registrations leaked after churn (baseline %d)", round, g.pollRegistrations(), base)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
