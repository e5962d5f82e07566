package minion

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minion/internal/sim"
)

// These tests cover the shared-loop runtime mode: many connections
// multiplexed on a LoopGroup (loop per core), accepted connections
// load-balanced across loops, per-connection delivery order preserved,
// and the non-blocking TrySend that makes cross-connection relays safe.

// sharedEchoServer is echoServer over a listener-owned shared loop group.
func sharedEchoServer(t *testing.T, proto Protocol, loops int) (addr string, stop func()) {
	t.Helper()
	ln, err := ListenConfig{TCPConfig: TCPConfig{NoDelay: true}, Loops: loops}.Listen(proto, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			c.OnMessage(func(msg []byte) {
				// Best-effort echo (see echoServer): a lost echo fails the
				// client-side order assertions, and teardown races are not
				// errors.
				c.Send(msg, Options{})
			})
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestLoopbackSharedLoops512 is the shared-loop scale proof: 512
// concurrent connections multiplexed over a handful of loops on each
// side, every connection's echoes arriving strictly in order (TCP is
// in-order both ways, so any reordering would be a lane-FIFO bug),
// under -race.
func TestLoopbackSharedLoops512(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const nConns = 512
	const perConn = 4
	addr, stop := sharedEchoServer(t, ProtoUCOBSTCP, 4)
	defer stop()
	g := NewLoopGroup(4)
	defer g.Close()
	dc := DialConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: g}

	var wg sync.WaitGroup
	errs := make(chan error, nConns)
	for id := 0; id < nConns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := dc.Dial(ProtoUCOBSTCP, "tcp", addr)
			if err != nil {
				errs <- fmt.Errorf("conn %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			got := make(chan string, perConn)
			c.OnMessage(func(msg []byte) { got <- string(msg) })
			for seq := 0; seq < perConn; seq++ {
				msg := []byte(fmt.Sprintf("conn-%d-msg-%d", id, seq))
				deadline := time.Now().Add(30 * time.Second)
				for {
					err := c.Send(msg, Options{})
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("conn %d: send %d: %w", id, seq, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			for seq := 0; seq < perConn; seq++ {
				select {
				case m := <-got:
					// Strict order: echo seq must match send seq exactly.
					want := fmt.Sprintf("conn-%d-msg-%d", id, seq)
					if m != want {
						errs <- fmt.Errorf("conn %d: echo %q out of order, want %q", id, m, want)
						return
					}
				case <-time.After(60 * time.Second):
					errs <- fmt.Errorf("conn %d: timed out after %d/%d echoes", id, seq, perConn)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestListenConfigLoadBalance: accepted connections spread across the
// group's loops within ±1. The ±1 guarantee belongs to the single-socket
// least-loaded accept path (a polled "tcp" listener shards accept across
// per-loop SO_REUSEPORT sockets, where the spread is the kernel's hash —
// covered statistically by TestShardedAcceptDistribution). A Unix-socket
// listener never shards, and its connections are not TCP sockets the
// poller takes, so on any platform this drives the single-socket accept
// path and the reader/writer goroutine fallback on the group's loops.
func TestListenConfigLoadBalance(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	g := NewLoopGroup(4)
	defer g.Close()
	path := filepath.Join(t.TempDir(), "lb.sock")
	ln, err := ListenConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: g}.Listen(ProtoUCOBSTCP, "unix", path)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	if ln.Sharded() {
		t.Fatal("Unix-socket listener reports Sharded() = true, want single-socket accept")
	}
	const k = 18
	accepted := make(chan Conn, k)
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
	var conns []Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < k; i++ {
		c, err := Dial(ProtoUCOBSTCP, "unix", path, TCPConfig{})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		conns = append(conns, c)
	}
	for i := 0; i < k; i++ {
		c := <-accepted
		if c == nil {
			t.FailNow()
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
		t.Fatalf("loads %v sum to %d, want %d", loads, sum, k)
	}
	if max-min > 1 {
		t.Fatalf("accepted connections spread %v beyond ±1", loads)
	}
	// The connections on the group's loops must still carry traffic in
	// the fallback shape: a message from the first dialer reaches one of
	// the accepted connections.
	got := make(chan string, k)
	for _, c := range conns[k:] {
		c.OnMessage(func(msg []byte) { got <- string(msg) })
	}
	if err := conns[0].Send([]byte("ping"), Options{}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if m != "ping" {
			t.Fatalf("got %q, want %q", m, "ping")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no message over a group connection")
	}
}

// TestTrySendCrossConnRelayNoDeadlock wires two connections into each
// other's OnMessage callbacks — the relay pattern the Dial documentation
// calls out as a deadlock with marshalled Send — and runs traffic both
// directions at once. TrySend never blocks on the other connection's
// loop, so the relay must complete.
func TestTrySendCrossConnRelayNoDeadlock(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	addr1, stop1 := echoServer(t, ProtoUCOBSTCP)
	defer stop1()
	addr2, stop2 := echoServer(t, ProtoUCOBSTCP)
	defer stop2()
	c1, err := Dial(ProtoUCOBSTCP, "tcp", addr1, TCPConfig{NoDelay: true})
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	defer c1.Close()
	c2, err := Dial(ProtoUCOBSTCP, "tcp", addr2, TCPConfig{NoDelay: true})
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer c2.Close()

	const hops = 400
	var count atomic.Int64
	done := make(chan struct{})
	hop := func(from, to Conn) func([]byte) {
		return func(msg []byte) {
			n := count.Add(1)
			if n == hops {
				close(done)
			}
			if n >= hops {
				return
			}
			// Relay into the OTHER connection from inside this one's
			// callback: the exact shape that deadlocks with Send.
			if err := to.TrySend(msg, Options{}); err != nil && err != ErrWouldBlock {
				t.Errorf("relay TrySend: %v", err)
			}
		}
	}
	c1.OnMessage(hop(c1, c2))
	c2.OnMessage(hop(c2, c1))
	// Seed both directions so the two loops relay into each other
	// simultaneously.
	for i := 0; i < 8; i++ {
		if err := c1.Send([]byte(fmt.Sprintf("seed-a-%d", i)), Options{}); err != nil {
			t.Fatalf("seed c1: %v", err)
		}
		if err := c2.Send([]byte(fmt.Sprintf("seed-b-%d", i)), Options{}); err != nil {
			t.Fatalf("seed c2: %v", err)
		}
	}
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("relay made %d/%d hops — cross-connection deadlock?", count.Load(), hops)
	}
}

// TestTrySendKeepsOrder pushes a sequenced stream through TrySend alone
// against a small send budget, forcing the internal retry queue to
// engage; echoes must come back strictly in order.
func TestTrySendKeepsOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	addr, stop := echoServer(t, ProtoUCOBSTCP)
	defer stop()
	c, err := Dial(ProtoUCOBSTCP, "tcp", addr, TCPConfig{NoDelay: true, SendBufBytes: 4 * 1024})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	const n = 300
	got := make(chan string, n)
	c.OnMessage(func(msg []byte) { got <- string(msg) })
	for i := 0; i < n; i++ {
		msg := []byte(fmt.Sprintf("seq-%04d-%s", i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"))
		deadline := time.Now().Add(30 * time.Second)
		for {
			err := c.TrySend(msg, Options{})
			if err == nil {
				break
			}
			if err != ErrWouldBlock {
				t.Fatalf("TrySend %d: %v", i, err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("TrySend %d: stuck in backpressure", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-got:
			want := fmt.Sprintf("seq-%04d-", i)
			if m[:len(want)] != want {
				t.Fatalf("echo %d = %q, want prefix %q (TrySend reordered)", i, m, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out after %d/%d echoes", i, n)
		}
	}
}

// TestSimTrySendIsSend: on simulated substrates TrySend degrades to Send.
func TestSimTrySendIsSend(t *testing.T) {
	s := sim.New(7)
	pair := NewPair(s, ProtoUCOBSTCP, TCPConfig{NoDelay: true}, nil, nil)
	s.RunUntil(2 * time.Second)
	delivered := make(chan string, 1)
	pair.B.OnMessage(func(msg []byte) { delivered <- string(msg) })
	if err := pair.A.TrySend([]byte("sim-try"), Options{}); err != nil {
		t.Fatalf("TrySend: %v", err)
	}
	s.Run()
	select {
	case m := <-delivered:
		if m != "sim-try" {
			t.Fatalf("got %q", m)
		}
	default:
		t.Fatal("TrySend datagram not delivered on simulator")
	}
}
