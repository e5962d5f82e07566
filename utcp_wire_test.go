package minion

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/tcp"
	"minion/internal/wire"
)

// utcpPair dials a ProtoUCOBSuTCP/ProtoUTLSuTCP loopback pair through the
// public API and returns both ends with cleanup wired.
func utcpPair(t *testing.T, proto Protocol, cfg TCPConfig) (client, server Conn) {
	t.Helper()
	ln, err := Listen(proto, "udp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	cli, err := Dial(proto, "udp", ln.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(cli.Close)
	srv, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	t.Cleanup(srv.Close)
	return cli, srv
}

// TestUTCPDialListenEcho runs the full public path: ProtoUCOBSuTCP over a
// real loopback UDP socket, datagrams echoed back through TrySend (the
// relay pattern), graceful close.
func TestUTCPDialListenEcho(t *testing.T) {
	cli, srv := utcpPair(t, ProtoUCOBSuTCP, TCPConfig{NoDelay: true})

	srv.OnMessage(func(msg []byte) {
		if err := srv.TrySend(msg, Options{}); err != nil {
			t.Errorf("echo TrySend: %v", err)
		}
	})

	const n = 100
	got := make(chan uint32, n)
	cli.OnMessage(func(msg []byte) {
		if len(msg) >= 4 {
			got <- binary.BigEndian.Uint32(msg)
		}
	})
	msg := make([]byte, 512)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(msg, uint32(i))
		if err := cli.Send(msg, Options{}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}

	seen := make(map[uint32]bool, n)
	timeout := time.After(30 * time.Second)
	for len(seen) < n {
		select {
		case id := <-got:
			seen[id] = true
		case <-timeout:
			t.Fatalf("echoed %d/%d datagrams", len(seen), n)
		}
	}
}

// TestUTCPPublicUnorderedUnderLoss asserts the paper's core property
// end-to-end through the public API: under injected datagram loss a
// ProtoUCOBSuTCP flow delivers every datagram (reliable) but not in send
// order (unordered), and a high-priority datagram queued behind a bulk
// backlog arrives well before the backlog's tail.
func TestUTCPPublicUnorderedUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("loss-schedule test skipped in -short")
	}
	cli, srv := utcpPair(t, ProtoUCOBSuTCP, TCPConfig{NoDelay: true})

	const (
		bulkN  = 200
		msgLen = 1000
		hiID   = uint32(bulkN)
	)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(size int) (int, error) {
		mu.Lock()
		drop := rng.Float64() < 0.08
		mu.Unlock()
		if drop {
			return 0, syscall.ECONNREFUSED
		}
		return 0, nil
	}})
	defer wire.SetFaultHooks(nil)

	type arrival struct{ id, rank uint32 }
	arrivals := make(chan arrival, bulkN+1)
	var rank atomic.Uint32
	srv.OnMessage(func(msg []byte) {
		if len(msg) >= 4 {
			arrivals <- arrival{binary.BigEndian.Uint32(msg), rank.Add(1) - 1}
		}
	})

	// Queue the bulk backlog and then one high-priority datagram; TrySend
	// preserves acceptance order into the transport, where the priority
	// tag inserts the last datagram ahead of the untransmitted backlog.
	msg := make([]byte, msgLen)
	for i := uint32(0); i <= bulkN; i++ {
		binary.BigEndian.PutUint32(msg, i)
		opt := Options{Priority: 1}
		if i == hiID {
			opt.Priority = 0
		}
		for {
			err := cli.TrySend(msg, opt)
			if err == nil {
				break
			}
			if err != ErrWouldBlock {
				t.Fatalf("TrySend %d: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	seen := make(map[uint32]uint32, bulkN+1)
	timeout := time.After(60 * time.Second)
	for len(seen) <= bulkN {
		select {
		case a := <-arrivals:
			seen[a.id] = a.rank
		case <-timeout:
			t.Fatalf("delivered %d/%d datagrams", len(seen), bulkN+1)
		}
	}

	// Unordered: arrival ranks of the bulk ids must not be monotone.
	inversions := 0
	prev := int64(-1)
	for i := uint32(0); i < bulkN; i++ {
		r := int64(seen[i])
		if r < prev {
			inversions++
		}
		if r > prev {
			prev = r
		}
	}
	if inversions == 0 {
		t.Error("no out-of-order arrivals under 8% loss — HOL blocking suspected")
	}
	// Priority: queued last, delivered within the first half.
	if r := seen[hiID]; r > bulkN/2 {
		t.Errorf("high-priority datagram arrived at rank %d of %d", r, bulkN+1)
	}
}

// TestUTLSOverUTCPWire runs the encrypted stack over userspace uTCP on a
// real socket: compat handshake with the explicit record-number extension
// (the configuration that decrypts out of order), bidirectional exchange.
func TestUTLSOverUTCPWire(t *testing.T) {
	cli, srv := utcpPair(t, ProtoUTLSuTCP, TCPConfig{NoDelay: true, ExplicitRecNum: true})

	srv.OnMessage(func(msg []byte) {
		if err := srv.TrySend(msg, Options{}); err != nil {
			t.Errorf("echo TrySend: %v", err)
		}
	})
	got := make(chan []byte, 16)
	cli.OnMessage(func(msg []byte) { got <- append([]byte(nil), msg...) })

	payload := []byte("unordered ciphertext, square peg, round pipe")
	if err := cli.Send(payload, Options{}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if string(m) != string(payload) {
			t.Fatalf("echo mismatch: %q", m)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("echo did not arrive")
	}
	if !SupportsPriorities(cli) {
		t.Error("explicit-recnum uTLS over uTCP should support priorities")
	}
}

// TestUTCPResultAndErrorExactlyOnce drives the adapter's failure fan-out:
// datagrams accepted by TrySend during a total outage report their fate
// exactly once (sent, or ErrConnClosed at close), and OnConnError fires
// exactly once — while the connection dies mid-retransmission-storm.
func TestUTCPResultAndErrorExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("close-linger test skipped in -short")
	}
	goros := runtime.NumGoroutine()
	cli, srv := utcpPair(t, ProtoUCOBSuTCP, TCPConfig{NoDelay: true})
	srv.OnMessage(func([]byte) {})

	// Let the handshake finish on a healthy wire first: TrySend's OnResult
	// fires once the probe is framed into the transport.
	probe := make(chan struct{}, 1)
	if err := cli.TrySend([]byte("probe"), Options{OnResult: func(error) { probe <- struct{}{} }}); err != nil {
		t.Fatalf("probe send: %v", err)
	}
	select {
	case <-probe:
	case <-time.After(10 * time.Second):
		t.Fatal("probe never transmitted")
	}

	// Total outage: every datagram (data, retransmits, eventually the FIN)
	// drops at the socket boundary.
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(size int) (int, error) {
		return 0, syscall.ECONNREFUSED
	}})
	defer wire.SetFaultHooks(nil)

	var accepted, results atomic.Int64
	var multi atomic.Int64
	msg := make([]byte, 8*1024)
	for i := 0; i < 200; i++ {
		fired := new(atomic.Int64)
		err := cli.TrySend(msg, Options{OnResult: func(error) {
			if fired.Add(1) > 1 {
				multi.Add(1)
			}
			results.Add(1)
		}})
		if err == nil {
			accepted.Add(1)
		} else if err != ErrWouldBlock {
			t.Fatalf("TrySend: %v", err)
		}
	}

	errs := make(chan error, 2)
	if !OnConnError(cli, func(err error) { errs <- err }) {
		t.Fatal("OnConnError unsupported on utcp conn")
	}

	// Close under total loss: the FIN cannot travel, the linger abort
	// reclaims the connection, and every accepted datagram's fate reports.
	cli.Close()
	select {
	case err := <-errs:
		if err != ErrConnClosed {
			t.Errorf("terminal error = %v, want ErrConnClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("OnConnError never fired")
	}
	deadline := time.Now().Add(10 * time.Second)
	for results.Load() < accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got, want := results.Load(), accepted.Load(); got != want {
		t.Errorf("OnResult fired %d times for %d accepted datagrams", got, want)
	}
	if m := multi.Load(); m != 0 {
		t.Errorf("%d datagrams reported more than once", m)
	}
	select {
	case err := <-errs:
		t.Errorf("OnConnError fired twice (second: %v)", err)
	default:
	}

	// The dialed socket's goroutines (reader, loop) must return.
	wire.SetFaultHooks(nil)
	srv.Close()
	for time.Now().Before(deadline) && runtime.NumGoroutine() > goros+4 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goros+4 {
		t.Errorf("goroutines did not return: %d now vs %d baseline", n, goros)
	}
}

// TestNegotiateTransport pins the deployable protocol selection: uTCP
// stacks ride UDP where the path allows, degrade to kernel-TCP siblings
// where it does not, and Negotiate's own answers are never contradicted
// on paths without uTCP peers.
func TestNegotiateTransport(t *testing.T) {
	cases := []struct {
		name  string
		prefs Preferences
		path  PathConstraints
		proto Protocol
		tr    Transport
	}{
		{"open path, utcp peer", Preferences{},
			PathConstraints{PeerSupportsUTCP: true}, ProtoUCOBSuTCP, TransportUDP},
		{"secure wanted, utcp peer", Preferences{RequireSecure: true},
			PathConstraints{PeerSupportsUTCP: true}, ProtoUTLSuTCP, TransportUDP},
		{"raw udp preferred", Preferences{PreferUnordered: true},
			PathConstraints{PeerSupportsUTCP: true}, ProtoUDP, TransportUDP},
		{"udp blocked degrades", Preferences{},
			PathConstraints{UDPBlocked: true, PeerSupportsUTCP: true}, ProtoUCOBSTCP, TransportTCP},
		{"443-only degrades to utls/tcp", Preferences{},
			PathConstraints{TCPOnly443: true, PeerSupportsUTCP: true}, ProtoUTLSTCP, TransportTCP},
		{"dpi forces genuine tls", Preferences{},
			PathConstraints{DPIValidatesHandshake: true, PeerSupportsUTCP: true}, ProtoUTLSTCP, TransportTCP},
		{"no utcp peer", Preferences{},
			PathConstraints{}, ProtoUCOBSTCP, TransportTCP},
		{"no utcp peer, secure", Preferences{RequireSecure: true},
			PathConstraints{}, ProtoUTLSTCP, TransportTCP},
	}
	for _, c := range cases {
		p, tr := NegotiateTransport(c.prefs, c.path)
		if p != c.proto || tr != c.tr {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, p, tr, c.proto, c.tr)
		}
	}
	if TransportUDP.Network() != "udp" || TransportTCP.Network() != "tcp" {
		t.Error("Transport.Network mapping broken")
	}
}

// TestUTCPThinStreamLossRecovery is the paper's conferencing case through
// the public API: genuine TLS over uTCP/UDP, 500 datagrams/s of 160 B for
// 4 s under a seeded 3% drop of every data-bearing datagram,
// retransmissions and probes included. RACK-TLP recovery must deliver
// every datagram exactly once, keep the tail within a few send intervals
// of the loopback round trip, and never fall back to an RTO.
func TestUTCPThinStreamLossRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("4 s paced stream skipped in -short")
	}
	srvTLS, cliTLS, _, _ := interopTLS(t)
	ln, err := Listen(ProtoUTLSuTCP, "udp", "127.0.0.1:0", TCPConfig{NoDelay: true, TLS: srvTLS})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	cli, err := Dial(ProtoUTLSuTCP, "udp", ln.Addr().String(), TCPConfig{NoDelay: true, TLS: cliTLS})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cli.Close()
	srv, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	defer srv.Close()

	const (
		n        = 2000
		msgLen   = 160
		interval = 2 * time.Millisecond
		ackMax   = 24 + 3*16 // a bare uTCP ACK with three SACK blocks
	)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(3))
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(size int) (int, error) {
		mu.Lock()
		drop := size > ackMax && rng.Float64() < 0.03
		mu.Unlock()
		if drop {
			return 0, syscall.ECONNREFUSED
		}
		return 0, nil
	}})
	defer wire.SetFaultHooks(nil)

	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	var (
		rmu     sync.Mutex
		latency = make([]time.Duration, n)
		got     int
		done    = make(chan struct{})
	)
	srv.OnMessage(func(msg []byte) {
		rmu.Lock()
		defer rmu.Unlock()
		id := int(binary.BigEndian.Uint32(msg))
		if len(msg) != msgLen || id >= n || latency[id] != 0 {
			t.Errorf("datagram %d (%d B) delivered twice or malformed", id, len(msg))
			return
		}
		latency[id] = time.Since(due(id))
		if got++; got == n {
			close(done)
		}
	})
	msg := make([]byte, msgLen)
	for i := 0; i < n; i++ {
		time.Sleep(time.Until(due(i)))
		binary.BigEndian.PutUint32(msg, uint32(i))
		if err := cli.Send(msg, Options{}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		rmu.Lock()
		t.Fatalf("delivered %d/%d datagrams", got, n)
	}

	rmu.Lock()
	sorted := append([]time.Duration(nil), latency...)
	rmu.Unlock()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	p50, p99 := sorted[n/2], sorted[n*99/100]

	w, ok := cli.(*utcpConn)
	if !ok {
		t.Fatalf("Dial returned %T, want the uTCP adapter", cli)
	}
	var st tcp.Stats
	w.tr.Do(func() { st = w.tc.Stats() })
	t.Logf("p50 %v p99 %v; sender %+v", p50, p99, st)
	if st.SegsRetrans == 0 {
		t.Fatal("no retransmissions: the drop hook never engaged")
	}
	if p99 >= 50*time.Millisecond {
		t.Errorf("p99 latency %v under 3%% loss, want < 50ms", p99)
	}
	if st.Timeouts != 0 {
		t.Errorf("%d RTOs, want every loss repaired by RACK-TLP", st.Timeouts)
	}
}
