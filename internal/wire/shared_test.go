package wire

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// The Shared tests and "shared" subtests cover group loops without
// pollers: connections share their group's loops but each runs its own
// reader and writer goroutines — the shape every group runs where the
// platform has no poller, driven on Linux through newGroup(n, false).

// sharedPair returns two wire Conns joined by loopback TCP, each attached
// to a group without pollers (one per side, like a real client and server
// process).
func sharedPair(t *testing.T, cfg Config) (*Conn, *Conn) {
	t.Helper()
	gA, gB := newGroup(2, false), newGroup(2, false)
	t.Cleanup(func() { gA.Close(); gB.Close() })
	cfgA, cfgB := cfg, cfg
	cfgA.Group, cfgB.Group = gA, gB
	a, b := pipePairCfg(t, cfgA, cfgB)
	if a.pl != nil || b.pl != nil {
		t.Fatalf("connections attached to a poller in a group without pollers")
	}
	return a, b
}

func TestSharedStreamRoundTrip(t *testing.T) {
	a, b := sharedPair(t, Config{NoDelay: true})
	msg := bytes.Repeat([]byte("shared-loop-"), 1000)
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

func TestSharedBackpressureAndIntegrity(t *testing.T) {
	// Many small writes through the writer goroutine's writev
	// coalescing, against a small send budget: content must survive
	// partial vectored writes intact and in order.
	a, b := sharedPair(t, Config{SendBufBytes: 8 * 1024})
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

func TestSharedGracefulCloseDeliversEOF(t *testing.T) {
	a, b := sharedPair(t, Config{})
	msg := []byte("last shared words")
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

func TestSharedManyConnsOneGroupOrdered(t *testing.T) {
	// 24 connections multiplexed on a 2-loop group, each streaming
	// sequenced records; every connection's bytes must arrive in order
	// (the per-lane FIFO guarantee).
	g := newGroup(2, false)
	defer g.Close()
	cfg := Config{NoDelay: true, Group: g}
	ln, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	const conns = 24
	const perConn = 64 * 1024
	// Accept() hands sockets out in arrival order, not dial order, so an
	// accepted conn may be the peer of any dialer. That is fine — every
	// stream carries the same position-keyed pattern — but it means no
	// goroutine may close its conns until every stream has fully drained,
	// or it would cut a stream some other goroutine is still verifying.
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

// TestGroupLoadsBalanced: accepted connections spread across the group's
// loops within ±1. The ±1 guarantee belongs to the single-socket
// least-loaded accept path, which groups without pollers take (a polled
// listener shards accept across per-loop SO_REUSEPORT sockets, where the
// spread is the kernel's hash — covered statistically by the root
// package's TestShardedAcceptDistribution).
func TestGroupLoadsBalanced(t *testing.T) {
	g := newGroup(4, false)
	defer g.Close()
	cfg := Config{Group: g}
	ln, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	const k = 18
	var conns []*Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	accepted := make(chan *Conn, k)
	go func() {
		for i := 0; i < k; i++ {
			c, err := ln.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				accepted <- nil
				return
			}
			accepted <- c
		}
	}()
	for i := 0; i < k; i++ {
		c, err := Dial("tcp", ln.Addr().String(), Config{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		conns = append(conns, c)
	}
	for i := 0; i < k; i++ {
		c := <-accepted
		if c == nil {
			t.Fatal("accept failed")
		}
		conns = append(conns, c)
	}
	loads := g.Loads()
	min, max, sum := loads[0], loads[0], 0
	for _, n := range loads {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
		sum += n
	}
	if sum != k {
		t.Fatalf("group loads %v sum to %d, want %d accepted conns", loads, sum, k)
	}
	if max-min > 1 {
		t.Fatalf("accepted connections spread %v beyond ±1 across loops", loads)
	}
}

// TestUnpolledGroupListenerNotSharded pins the contract that sharded
// accept needs pollers: a group without them keeps the single-socket
// least-loaded accept path on every platform, and still accepts.
func TestUnpolledGroupListenerNotSharded(t *testing.T) {
	g := newGroup(2, false)
	defer g.Close()
	ln, err := Listen("tcp", "127.0.0.1:0", Config{Group: g})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	if ln.Sharded() {
		t.Fatal("listener on a group without pollers reports Sharded() = true, want single-socket accept")
	}
	if got := ln.ShardAccepts(); got != nil {
		t.Fatalf("ShardAccepts() = %v on a single-socket listener, want nil", got)
	}
	done := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
		}
		done <- c
	}()
	c, err := Dial("tcp", ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	sc := <-done
	if sc == nil {
		t.FailNow()
	}
	sc.Close()
}

func TestOnWritableFiresAfterDrain(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no readiness poller on this platform")
			}
			cfg := Config{SendBufBytes: 16 * 1024, NoDelay: true}
			var a, b *Conn
			switch mode {
			case "shared":
				a, b = sharedPair(t, cfg)
			case "poll":
				a, b = pollPair(t, cfg)
			default:
				a, b = pipePair(t, cfg)
			}
			writable := make(chan struct{}, 1)
			// Non-blocking: the edge can fire on every low-water crossing
			// while the fill loop oscillates, and a blocking send here
			// would wedge the event loop.
			a.OnWritable(func() {
				select {
				case writable <- struct{}{}:
				default:
				}
			})
			// Fill until rejected (arming OnWritable); the peer is not
			// reading yet, so the kernel buffer eventually pushes back.
			blocked := false
			deadline := time.Now().Add(10 * time.Second)
			for !blocked {
				if time.Now().After(deadline) {
					t.Skip("send buffer never filled (huge kernel buffers?)")
				}
				bb := buf.Get(4 * 1024)
				var err error
				a.Do(func() { _, err = a.WriteMsgBuf(bb, tcp.WriteOptions{}) })
				if err == tcp.ErrWouldBlock {
					blocked = true
				} else if err != nil {
					t.Fatalf("WriteMsgBuf: %v", err)
				}
			}
			// Drain from the peer; the callback must fire once the queue
			// drops to the low-water mark.
			b.Do(func() {
				p := make([]byte, 32*1024)
				drain := func() {
					for {
						if _, err := b.Read(p); err != nil {
							return
						}
					}
				}
				b.OnReadable(drain)
				drain()
			})
			select {
			case <-writable:
			case <-time.After(10 * time.Second):
				t.Fatal("OnWritable never fired after drain")
			}
			// And the send side must accept data again.
			var err error
			okWrite := func() bool {
				a.Do(func() { _, err = a.WriteMsgBuf(buf.From([]byte(fmt.Sprintf("after-%s", mode))), tcp.WriteOptions{}) })
				return err == nil
			}
			for !okWrite() {
				if err != tcp.ErrWouldBlock {
					t.Fatalf("write after writable: %v", err)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestOnWritableLateRegistrationFires: a rejection arms the writable
// edge even before a callback is registered. A sender that registers
// only after its first ErrWouldBlock (minion's TrySend queue does) may
// find the queue already drained, with no further edge coming; the
// registration itself must fire the edge.
func TestOnWritableLateRegistrationFires(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no readiness poller on this platform")
			}
			cfg := Config{SendBufBytes: 16 * 1024, NoDelay: true}
			var a, b *Conn
			switch mode {
			case "shared":
				a, b = sharedPair(t, cfg)
			case "poll":
				a, b = pollPair(t, cfg)
			default:
				a, b = pipePair(t, cfg)
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Skip("send buffer never filled (huge kernel buffers?)")
				}
				var err error
				a.Do(func() { _, err = a.WriteMsgBuf(buf.Get(4*1024), tcp.WriteOptions{}) })
				if err == tcp.ErrWouldBlock {
					break
				} else if err != nil {
					t.Fatalf("WriteMsgBuf: %v", err)
				}
			}
			b.Do(func() {
				p := make([]byte, 32*1024)
				drain := func() {
					for {
						if _, err := b.Read(p); err != nil {
							return
						}
					}
				}
				b.OnReadable(drain)
				drain()
			})
			for a.SendBufAvailable() < cfg.SendBufBytes {
				if time.Now().After(deadline) {
					t.Fatal("send queue never drained")
				}
				time.Sleep(time.Millisecond)
			}
			writable := make(chan struct{}, 1)
			a.Do(func() { a.OnWritable(func() { writable <- struct{}{} }) })
			select {
			case <-writable:
			case <-time.After(5 * time.Second):
				t.Fatal("the edge the rejection armed was lost: OnWritable never fired")
			}
		})
	}
}
