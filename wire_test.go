package minion

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// These tests exercise the real-socket substrate: the same uCOBS/uTLS
// framing layers that run on the simulator, here over actual loopback TCP
// connections with every endpoint on its own event loop, many connections
// concurrently, under -race. They are the wire-compatibility counterpart
// of the simulated integration tests.

// echoServer accepts proto connections on a loopback listener and echoes
// every datagram back with a per-connection running index appended.
func echoServer(t *testing.T, proto Protocol) (addr string, stop func()) {
	t.Helper()
	ln, err := Listen(proto, "tcp", "127.0.0.1:0", TCPConfig{NoDelay: true})
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
				// The delivery buffer recycles when this callback returns;
				// Send consumes msg before returning, so echoing it straight
				// back is within the ownership rules. Echo errors are not
				// reported: during teardown echoes race client closes, and a
				// genuinely lost echo fails the client-side assertions.
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

// runLoopbackEcho dials nConns concurrent connections, each sending
// perConn datagrams and verifying its own echoes.
func runLoopbackEcho(t *testing.T, proto Protocol, nConns, perConn int) {
	t.Helper()
	addr, stop := echoServer(t, proto)
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, nConns)
	for id := 0; id < nConns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(proto, "tcp", addr, TCPConfig{NoDelay: true})
			if err != nil {
				errs <- fmt.Errorf("conn %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			type echo struct {
				seq int
				ok  bool
			}
			got := make(chan echo, perConn)
			c.OnMessage(func(msg []byte) {
				var cid, seq int
				var tail string
				_, serr := fmt.Sscanf(string(msg), "conn-%d-msg-%d-%s", &cid, &seq, &tail)
				got <- echo{seq: seq, ok: serr == nil && cid == id && tail == "payload"}
			})
			for seq := 0; seq < perConn; seq++ {
				msg := []byte(fmt.Sprintf("conn-%d-msg-%d-payload", id, seq))
				deadline := time.Now().Add(10 * time.Second)
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
			seen := make([]bool, perConn)
			for n := 0; n < perConn; n++ {
				select {
				case e := <-got:
					if !e.ok || e.seq < 0 || e.seq >= perConn || seen[e.seq] {
						errs <- fmt.Errorf("conn %d: bad or duplicate echo %+v", id, e)
						return
					}
					seen[e.seq] = true
				case <-time.After(30 * time.Second):
					errs <- fmt.Errorf("conn %d: timed out after %d/%d echoes", id, n, perConn)
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

func TestLoopbackUCOBSConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	runLoopbackEcho(t, ProtoUCOBSTCP, 32, 50)
}

func TestLoopbackUTLSConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	runLoopbackEcho(t, ProtoUTLSTCP, 32, 50)
}

// TestLoopbackUTLSHandshakeAndQueueing checks that datagrams sent before
// the uTLS handshake completes are queued and flushed, not lost.
func TestLoopbackUTLSHandshakeAndQueueing(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	addr, stop := echoServer(t, ProtoUTLSTCP)
	defer stop()
	c, err := Dial(ProtoUTLSTCP, "tcp", addr, TCPConfig{NoDelay: true})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	got := make(chan string, 1)
	c.OnMessage(func(msg []byte) { got <- string(msg) })
	// Send immediately: the client hello is barely on the wire.
	if err := c.Send([]byte("pre-handshake"), Options{}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if m != "pre-handshake" {
			t.Fatalf("echo = %q", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pre-handshake datagram never echoed")
	}
}

// TestLoopbackUDPShim runs the public UDP shim against a vanilla UDP echo
// peer — the shim's datagrams must be plain UDP on the wire.
func TestLoopbackUDPShim(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	pc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	defer pc.Close()
	go func() { // plain-socket echo peer, no Minion anywhere
		p := make([]byte, 64*1024)
		for {
			n, from, err := pc.ReadFromUDP(p)
			if err != nil {
				return
			}
			pc.WriteToUDP(p[:n], from)
		}
	}()

	c, err := DialUDP("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatalf("DialUDP: %v", err)
	}
	defer c.Close()
	got := make(chan string, 8)
	c.OnMessage(func(msg []byte) { got <- string(msg) })
	const n = 8
	for i := 0; i < n; i++ {
		if err := c.Send([]byte(fmt.Sprintf("dgram-%d", i)), Options{}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	seen := map[string]bool{}
	timeout := time.After(10 * time.Second)
	for len(seen) < n {
		select {
		case m := <-got:
			seen[m] = true
		case <-timeout:
			t.Fatalf("echoed %d/%d datagrams", len(seen), n)
		}
	}
}

// TestDialSimOnlyProtocols verifies the uTCP stacks refuse real sockets.
func TestDialSimOnlyProtocols(t *testing.T) {
	for _, proto := range []Protocol{ProtoUCOBSuTCP, ProtoUTLSuTCP} {
		if _, err := Dial(proto, "tcp", "127.0.0.1:1", TCPConfig{}); err != ErrSimOnly {
			t.Errorf("Dial(%v) err = %v, want ErrSimOnly", proto, err)
		}
		if _, err := Listen(proto, "tcp", "127.0.0.1:0", TCPConfig{}); err != ErrSimOnly {
			t.Errorf("Listen(%v) err = %v, want ErrSimOnly", proto, err)
		}
	}
	if _, err := Listen(ProtoUDP, "udp", "127.0.0.1:0", TCPConfig{}); err == nil || err == ErrSimOnly {
		t.Errorf("Listen(udp) err = %v, want a UDP-specific error", err)
	}
	if _, err := Dial(Protocol(99), "tcp", "127.0.0.1:1", TCPConfig{}); err == nil || err == ErrSimOnly {
		t.Errorf("Dial(invalid) err = %v, want an unknown-protocol error", err)
	}
}

// realPair dials a loopback pair of proto over network through the public
// API and returns both ends and the listener, with cleanup wired.
func realPair(t *testing.T, proto Protocol, network string, cfg TCPConfig) (client, server Conn, ln *Listener) {
	t.Helper()
	ln, err := Listen(proto, network, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	client, err = Dial(proto, network, ln.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(client.Close)
	server, err = ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	t.Cleanup(server.Close)
	return client, server, ln
}

// realStacks is every stack that runs over real sockets with a
// connection adapter: uCOBS and uTLS over kernel TCP and over uTCP/UDP.
var realStacks = []struct {
	proto   Protocol
	network string
}{
	{ProtoUCOBSTCP, "tcp"},
	{ProtoUTLSTCP, "tcp"},
	{ProtoUCOBSuTCP, "udp"},
	{ProtoUTLSuTCP, "udp"},
}

// assertClosed checks the closed-connection contract on c: Send returns
// ErrConnClosed, and a TrySend is either refused with ErrConnClosed or
// reports ErrConnClosed through its OnResult.
func assertClosed(t *testing.T, c Conn) {
	t.Helper()
	if err := c.Send([]byte("late"), Options{}); !errors.Is(err, ErrConnClosed) {
		t.Errorf("Send after close = %v, want ErrConnClosed", err)
	}
	res := make(chan error, 1)
	err := c.TrySend([]byte("late"), Options{OnResult: func(err error) { res <- err }})
	switch {
	case errors.Is(err, ErrConnClosed):
	case err != nil:
		t.Errorf("TrySend after close = %v, want nil or ErrConnClosed", err)
	default:
		select {
		case err := <-res:
			if !errors.Is(err, ErrConnClosed) {
				t.Errorf("late TrySend OnResult = %v, want ErrConnClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("late TrySend never reported through OnResult")
		}
	}
}

// TestConnCloseContract pins the failure-mode contract of docs/OPERATIONS.md
// on both substrates. A graceful client Close reaches the server's
// OnConnError promptly (as ErrConnClosed), while the half-closed server can
// still send; after a local Close, and after a peer reset, Send and a late
// TrySend report ErrConnClosed rather than a transport error.
func TestConnCloseContract(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	for _, st := range realStacks {
		t.Run(st.proto.String(), func(t *testing.T) {
			cli, srv, _ := realPair(t, st.proto, st.network, TCPConfig{NoDelay: true})
			got := make(chan struct{}, 1)
			srv.OnMessage(func([]byte) { got <- struct{}{} })
			if err := cli.Send([]byte("hello"), Options{}); err != nil {
				t.Fatalf("Send: %v", err)
			}
			select {
			case <-got:
			case <-time.After(10 * time.Second):
				t.Fatal("first datagram never arrived")
			}

			srvErr := make(chan error, 1)
			OnConnError(srv, func(err error) { srvErr <- err })
			start := time.Now()
			cli.Close()
			select {
			case err := <-srvErr:
				if err != ErrConnClosed {
					t.Errorf("server OnConnError = %v, want ErrConnClosed", err)
				}
				if d := time.Since(start); d >= 500*time.Millisecond {
					t.Errorf("server learned of the close after %v, want < 500ms", d)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("server OnConnError never fired")
			}
			if err := srv.Send([]byte("after fin"), Options{}); err != nil {
				t.Errorf("half-closed server Send = %v, want nil", err)
			}
			assertClosed(t, cli)
		})
	}
}

// TestConnPeerResetContract: a connection whose peer reset it keeps the
// closed-connection contract on both substrates. The kernel-TCP peer is a
// raw socket closed with SO_LINGER 0; the uTCP peer is a listener whose
// Close aborts its endpoints. The reset uTCP client closes its own loop,
// so a late TrySend can race that close; rt.Loop.Close runs every post
// it accepted, so OnResult still reports.
func TestConnPeerResetContract(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	for _, st := range realStacks {
		t.Run(st.proto.String(), func(t *testing.T) {
			var cli Conn
			if st.network == "udp" {
				var ln *Listener
				cli, _, ln = realPair(t, st.proto, st.network, TCPConfig{NoDelay: true})
				ln.Close()
			} else {
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				t.Cleanup(func() { l.Close() })
				sent := make(chan struct{})
				go func() {
					c, err := l.Accept()
					if err != nil {
						return
					}
					// Reset only once the client's first bytes arrive and its
					// first Send has returned, so the RST races neither its
					// connect nor that Send (a uTLS client's ClientHello goes
					// out before Dial returns).
					c.Read(make([]byte, 1))
					<-sent
					c.(*net.TCPConn).SetLinger(0)
					c.Close()
				}()
				if cli, err = Dial(st.proto, st.network, l.Addr().String(), TCPConfig{NoDelay: true}); err != nil {
					close(sent)
					t.Fatalf("Dial: %v", err)
				}
				t.Cleanup(cli.Close)
				err = cli.Send([]byte("hello"), Options{})
				close(sent)
				if err != nil {
					t.Fatalf("Send: %v", err)
				}
			}
			errs := make(chan error, 1)
			OnConnError(cli, func(err error) { errs <- err })
			select {
			case <-errs:
			case <-time.After(10 * time.Second):
				t.Fatal("the peer's reset never reached OnConnError")
			}
			assertClosed(t, cli)
		})
	}
}
