package main

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"minion"
	"minion/internal/tcp"
	"minion/internal/utls"
	"minion/internal/wire"
)

// workload is one traffic shape over one protocol stack.
type workload struct {
	name    string
	proto   minion.Protocol
	network string
	size    int     // datagram bytes handed to Conn.Send
	rate    int     // open loop: datagrams per second (0: closed loop)
	window  int     // closed loop: datagrams in flight
	loss    float64 // Bernoulli drop probability of data-bearing datagrams
}

// deadline is the conferencing delivery budget deadline_met_ratio counts.
const deadline = 150 * time.Millisecond

var workloads = []workload{
	{
		name:    "conf_utls_utcp_loss3",
		proto:   minion.ProtoUTLSuTCP,
		network: "udp",
		size:    160,
		rate:    500,
		loss:    0.03,
	},
	{
		name:    "small_utls_tcp_clean",
		proto:   minion.ProtoUTLSTCP,
		network: "tcp",
		size:    128,
		window:  1,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverName is the identity the benchmark's throwaway certificate carries.
const serverName = "minion.bench"

// creds is the genuine-TLS identity shared by every set-up of a run.
type creds struct {
	cert tls.Certificate
	pool *x509.CertPool
}

// tcpConfig is every workload's stack configuration: Nagle off and genuine
// TLS 1.2 pinned to AES-128-GCM.
func tcpConfig(cr *creds, server bool) minion.TCPConfig {
	gcm := []uint16{tls.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256}
	if server {
		return minion.TCPConfig{NoDelay: true, TLS: &minion.TLSConfig{Certificate: &cr.cert, CipherSuites: gcm}}
	}
	return minion.TCPConfig{NoDelay: true, TLS: &minion.TLSConfig{RootCAs: cr.pool, ServerName: serverName, CipherSuites: gcm}}
}

// session is one connected client/server pair over loopback.
type session struct {
	ln       *minion.Listener
	cli, srv minion.Conn
}

// setupTiming is one set-up, Listen through the first delivery.
type setupTiming struct {
	dial, accept, total time.Duration
}

const ioTimeout = 10 * time.Second

// probeTimeout bounds a set-up's first delivery, three orders of magnitude
// above a loopback set-up.
const probeTimeout = 2 * time.Second

// errSetupStalled marks a set-up whose probe datagram never arrived. Over
// uTLS on uTCP about one set-up in a few hundred stalls this way: the
// ClientHello can reach the accepted endpoint before the uTLS server has
// registered its reader on the connection, and nothing re-reads it.
var errSetupStalled = errors.New("set-up stalled: probe datagram never delivered")

// setup listens, dials, and delivers one probe datagram through the
// public API; the probe's delivery implies the handshake finished.
func (w workload) setup(cr *creds) (*session, setupTiming, error) {
	var st setupTiming
	t0 := time.Now()
	ln, err := minion.ListenConfig{TCPConfig: tcpConfig(cr, true)}.Listen(w.proto, w.network, "127.0.0.1:0")
	if err != nil {
		return nil, st, fmt.Errorf("listen: %w", err)
	}
	type accepted struct {
		c   minion.Conn
		err error
		at  time.Duration
	}
	acc := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		acc <- accepted{c, err, time.Since(t0)}
	}()
	tDial := time.Now()
	cli, err := minion.DialConfig{TCPConfig: tcpConfig(cr, false)}.Dial(w.proto, w.network, ln.Addr().String())
	st.dial = time.Since(tDial)
	if err != nil {
		ln.Close()
		return nil, st, fmt.Errorf("dial: %w", err)
	}
	var a accepted
	select {
	case a = <-acc:
	case <-time.After(ioTimeout):
		cli.Close()
		ln.Close()
		return nil, st, errors.New("accept timed out")
	}
	if a.err != nil {
		cli.Close()
		ln.Close()
		return nil, st, fmt.Errorf("accept: %w", a.err)
	}
	st.accept = a.at - tDial.Sub(t0)
	s := &session{ln: ln, cli: cli, srv: a.c}
	got := make(chan struct{})
	var once sync.Once
	s.srv.OnMessage(func([]byte) { once.Do(func() { close(got) }) })
	if err := cli.Send(make([]byte, w.size), minion.Options{}); err != nil {
		s.close()
		return nil, st, fmt.Errorf("probe send: %w", err)
	}
	select {
	case <-got:
	case <-time.After(probeTimeout):
		s.close()
		return nil, st, errSetupStalled
	}
	st.total = time.Since(t0)
	return s, st, nil
}

// setupRetry is setup retried past stalled set-ups, at most three times;
// it returns how many stalled.
func (w workload) setupRetry(cr *creds) (*session, setupTiming, int, error) {
	for stalls := 0; ; stalls++ {
		s, st, err := w.setup(cr)
		if !errors.Is(err, errSetupStalled) || stalls == 3 {
			return s, st, stalls, err
		}
	}
}

// connStats are one connection's protocol counters, read on its event
// loop once it reaches its terminal state.
type connStats struct {
	tcp  tcp.Stats
	utls utls.Stats
}

// readStats reads the counters of a framing connection. It must run on
// that connection's event loop.
func readStats(inner minion.Conn) connStats {
	var st connStats
	if u, ok := minion.UTLSOf(inner); ok {
		st.utls = u.Stats()
		if tc, ok := u.Transport().(*tcp.Conn); ok { // uTCP; kernel TCP has no counters here
			st.tcp = tc.Stats()
		}
	}
	return st
}

// close shuts both ends and the listener down and returns each end's final
// counters, read on its event loop from the terminal-state callback.
func (s *session) close() (cli, srv connStats, err error) {
	watch := func(c minion.Conn) chan connStats {
		ch := make(chan connStats, 1)
		in, ok := c.(interface{ Inner() minion.Conn })
		if !ok || !minion.OnConnError(c, func(error) { ch <- readStats(in.Inner()) }) {
			ch <- connStats{}
		}
		return ch
	}
	cliCh, srvCh := watch(s.cli), watch(s.srv)
	s.cli.Close()
	s.srv.Close()
	timeout := time.After(ioTimeout)
	for cliCh != nil || srvCh != nil {
		select {
		case cli = <-cliCh:
			cliCh = nil
		case srv = <-srvCh:
			srvCh = nil
		case <-timeout:
			err = errors.New("connection teardown timed out")
			cliCh, srvCh = nil, nil
		}
	}
	s.ln.Close()
	return cli, srv, err
}

// lossHook is the seeded loss model, installed on the wire layer's fault
// seam: each datagram larger than a bare uTCP acknowledgment (24-byte
// header plus three 16-byte SACK blocks) is dropped with probability p.
// It also counts the bytes handed to UDP sockets.
type lossHook struct {
	p     float64
	mu    sync.Mutex
	rng   *rand.Rand
	bytes atomic.Uint64
}

const ackMaxBytes = 24 + 3*16

func newLossHook(p float64, seed int64) *lossHook {
	return &lossHook{p: p, rng: rand.New(rand.NewSource(seed ^ 0x6c6f7373))}
}

func (h *lossHook) write(size int) (int, error) {
	if h.p > 0 && size > ackMaxBytes {
		h.mu.Lock()
		drop := h.rng.Float64() < h.p
		h.mu.Unlock()
		if drop {
			return 0, syscall.ECONNREFUSED
		}
	}
	h.bytes.Add(uint64(size))
	return 0, nil
}

func (h *lossHook) install() { wire.SetFaultHooks(&wire.FaultHooks{Write: h.write}) }
