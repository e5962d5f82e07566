package minion

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"minion/internal/buf"
	"minion/internal/rt"
	"minion/internal/tcp"
	"minion/internal/ucobs"
	"minion/internal/utcp"
	"minion/internal/utls"
	"minion/internal/wire"
)

// ErrSimOnly is returned by Dial/Listen for the uTCP protocol stacks on
// "tcp" networks: kernel TCP cannot deliver out of order, and no shipping
// OS has the uTCP extensions (paper §4/§7). On "udp" networks the same
// stacks work — userspace uTCP carried datagram-per-segment over a UDP
// socket (see utcp_wire.go and NegotiateTransport).
var ErrSimOnly = fmt.Errorf("minion: protocol requires uTCP kernel support (simulated substrate only)")

// ErrTimeout is the typed error a real-socket connection reports when a
// configured deadline expires: DialConfig.Timeout on establishment,
// TCPConfig.ReadIdleTimeout on a silent peer, TCPConfig.WriteStallTimeout
// on a peer that stopped reading, or a LoopGroup.Shutdown context cutting
// a drain short. Compare with errors.Is; it also satisfies net.Error with
// Timeout() == true.
var ErrTimeout = wire.ErrTimeout

// ErrSlowClient reports — through Options.OnResult — a queued datagram
// shed by EvictShed when its connection stalled past
// TCPConfig.WriteStallTimeout.
var ErrSlowClient = errors.New("minion: datagram shed on write-stalled connection")

// EvictPolicy selects what happens to a real-socket connection whose
// queued send bytes make no progress for TCPConfig.WriteStallTimeout.
type EvictPolicy int

const (
	// EvictClose closes the stalled connection with ErrTimeout — the
	// default: a peer that stopped reading is holding pooled buffers
	// hostage, and every datagram still queued reports through OnResult.
	EvictClose EvictPolicy = iota
	// EvictShed sheds first: each time the stall deadline passes, the
	// lowest-priority class of queued TrySend datagrams (the highest
	// numeric Options.Priority present) is dropped and reported with
	// ErrSlowClient, keeping the connection alive for higher-priority
	// traffic — the paper's priority semantics applied to overload. When
	// nothing sheddable remains, the policy escalates to EvictClose.
	// Bytes already framed into the transport queue are never shed (a
	// TLS stream cannot skip a record mid-sequence); only whole queued
	// datagrams are.
	EvictShed
)

func (p EvictPolicy) stallPolicy() wire.StallPolicy {
	if p == EvictShed {
		return wire.StallShed
	}
	return wire.StallEvict
}

// LoopGroup is a shared event-loop runtime for real-socket connections:
// a loop per core (by default), each multiplexing many connections while
// preserving per-connection callback ordering. Attach connections via
// DialConfig.Group / ListenConfig.Group; a connection then costs zero
// goroutines where the platform has a readiness poller (Linux), or two
// (its socket reader and writer) elsewhere, instead of three.
//
// Close stops the group once the last attached connection closes;
// connections attached at Close time keep running until then.
type LoopGroup struct{ g *wire.Group }

// NewLoopGroup starts loops event loops, each with a readiness poller
// where the platform has one (epoll on Linux); loops <= 0 means
// GOMAXPROCS, the loop-per-core default.
func NewLoopGroup(loops int) *LoopGroup { return &LoopGroup{g: wire.NewGroup(loops)} }

// Polled reports whether the group's loops run readiness pollers, so
// its connections do their I/O on the loops with no goroutines of their
// own.
func (g *LoopGroup) Polled() bool { return g.g.Polled() }

// Len returns the number of loops.
func (g *LoopGroup) Len() int { return g.g.Len() }

// Loads returns per-loop attached-connection counts — the observable
// accept-loadbalance state.
func (g *LoopGroup) Loads() []int { return g.g.Loads() }

// Close marks the group done; loops shut down when the last attached
// connection detaches.
func (g *LoopGroup) Close() { g.g.Close() }

// DrainStats reports what a graceful LoopGroup.Shutdown accomplished.
type DrainStats struct {
	// Conns is the number of attached connections the drain covered.
	Conns int
	// Flushed counts connections whose queued writes reached the kernel
	// (and whose close sequence — uTLS close_notify, TCP FIN — was sent)
	// before the context expired.
	Flushed int
	// Aborted counts connections cut short by the context deadline; their
	// remaining datagrams were reported through OnResult with ErrTimeout.
	Aborted int
	// PerLoop is the per-loop connection count at drain start, index-
	// aligned with Loads().
	PerLoop []int
}

// Shutdown drains the group gracefully: it stops tracking new
// connections, flushes every attached connection's queued writes, sends
// each protocol's close sequence (uTLS close_notify, then FIN), and
// closes the sockets. Connections that cannot finish before ctx expires
// are aborted with ErrTimeout — their undelivered datagrams report
// through OnResult. Callers should close their Listeners first so no new
// connections race the drain. Must not be called from a connection
// callback (it waits on the loops it would be running on).
func (g *LoopGroup) Shutdown(ctx context.Context) DrainStats {
	st := g.g.Shutdown(ctx)
	return DrainStats{
		Conns:   st.Conns,
		Flushed: st.Flushed,
		Aborted: st.Aborted,
		PerLoop: st.PerLoop,
	}
}

// defaultGroup is the process-wide LoopGroup used by DialConfig{Loops: n}
// when no explicit Group is supplied, sized loop-per-core at first use.
var defaultGroup struct {
	once sync.Once
	g    *wire.Group
}

func processGroup() *wire.Group {
	defaultGroup.once.Do(func() { defaultGroup.g = wire.NewGroup(0) })
	return defaultGroup.g
}

// DialConfig parameterizes outbound real-socket connections.
//
// The zero value dials exactly like Dial: a dedicated event loop (plus
// reader and writer goroutines) per connection. Set Group to attach to a
// shared LoopGroup, or set Loops != 0 (without a Group) to attach to the
// process-wide loop-per-core group — the configuration for clients that
// open thousands of connections.
type DialConfig struct {
	TCPConfig
	// Loops != 0 (with Group nil) selects the process-wide shared group.
	Loops int
	// Group attaches the connection to an explicit shared LoopGroup.
	Group *LoopGroup
	// Timeout bounds connection establishment end to end: TCP connect
	// (and name resolution) — over uTCP, the SYN exchange — plus, on the
	// uTLS stacks, the TLS handshake. Zero — the default — means no
	// bound, preserving the historical behavior that a Dial can wait as
	// long as the kernel does. A connect that times out returns an error
	// wrapping ErrTimeout; a handshake that times out aborts the
	// connection with ErrTimeout, which surfaces through OnResult and
	// OnConnError (Send then reports ErrConnClosed).
	Timeout time.Duration
	// Retry re-attempts transient dial failures with exponential
	// backoff. The zero value (Attempts <= 1) preserves single-shot
	// dialing exactly. With Attempts > 1 a uTLS dial additionally waits
	// for the handshake to settle before returning, so handshake
	// failures are retried too, and success means a ready connection.
	Retry RetryConfig
}

// RetryConfig shapes DialConfig's retry loop. Every attempt's failure is
// treated as transient — connect refusals, resets, timeouts, and uTLS
// handshake failures all retry; configuration errors (unknown protocol,
// ErrSimOnly) never reach the loop. When the attempts are exhausted the
// dial returns a *DialRetryError wrapping the last attempt's error.
type RetryConfig struct {
	// Attempts is the total attempt count, first try included; 0 or 1
	// disables retrying.
	Attempts int
	// BaseBackoff is the sleep before the second attempt; each later
	// attempt doubles it. Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled backoff. Default 1s.
	MaxBackoff time.Duration
	// Jitter, in [0, 1], adds up to that fraction of each backoff as a
	// uniformly random extra sleep — desynchronizing a thundering herd
	// of reconnecting clients. 0 keeps the backoff deterministic.
	Jitter float64
}

// DialRetryError is the typed give-up error a retrying dial returns once
// every attempt has failed. It wraps the final attempt's error, so
// errors.Is/As reach the underlying cause.
type DialRetryError struct {
	Attempts int   // attempts made
	Last     error // the final attempt's error
}

func (e *DialRetryError) Error() string {
	return fmt.Sprintf("minion: dial failed after %d attempts: %v", e.Attempts, e.Last)
}

func (e *DialRetryError) Unwrap() error { return e.Last }

// ListenConfig parameterizes accepted real-socket connections.
//
// The zero value behaves like Listen: a dedicated loop per accepted
// connection. Loops != 0 gives the listener its own shared group of that
// many loops (< 0 means GOMAXPROCS) and accepted connections are spread
// across them least-loaded; Group uses an externally owned group instead.
type ListenConfig struct {
	TCPConfig
	// Loops sizes a listener-owned shared group (< 0: GOMAXPROCS;
	// 0: dedicated loops per connection unless Group is set).
	Loops int
	// Group, when non-nil, overrides Loops with an external group whose
	// lifecycle the caller owns.
	Group *LoopGroup
	// Backlog is the listen(2) backlog (default 4096, clamped by the
	// kernel's somaxconn) — sized for accept bursts at c10k+, where the
	// stock default drops SYNs.
	Backlog int
}

func (dc DialConfig) group() *wire.Group {
	switch {
	case dc.Group != nil:
		return dc.Group.g
	case dc.Loops != 0:
		return processGroup()
	default:
		return nil
	}
}

// Dial connects a Minion endpoint over a real kernel socket: uCOBS or
// uTLS framing on a TCP connection ("tcp" networks), or the trivial shim
// on a connected UDP socket (ProtoUDP + "udp" networks). The returned
// Conn is safe for use from any goroutine; OnMessage callbacks run on the
// connection's event loop, one at a time.
//
// The stream's bytes are wire-identical to TCP (uCOBS) or TLS (uTLS), so
// middleboxes see nothing unusual — the paper's deployability story on a
// real network. Kernel TCP cannot deliver out of order, so the framing
// layers run their in-order receive paths; the uTCP protocol variants
// return ErrSimOnly.
//
// Re-entrancy: calls on the SAME connection from inside its OnMessage
// callback (the echo pattern) run inline and are always safe. Calling
// Send/Recv on a DIFFERENT wire connection from a callback blocks on that
// connection's event loop — two connections relaying into each other
// from their callbacks can therefore deadlock. Relays use TrySend, which
// never blocks on the loop and keeps relay order.
func Dial(proto Protocol, network, addr string, cfg TCPConfig) (Conn, error) {
	return DialConfig{TCPConfig: cfg}.Dial(proto, network, addr)
}

// Dial connects with this configuration; see the package Dial for the
// protocol semantics. With Retry.Attempts > 1 transient failures are
// re-attempted under exponential backoff, and a uTLS dial returns only
// once its handshake has settled.
func (dc DialConfig) Dial(proto Protocol, network, addr string) (Conn, error) {
	switch proto {
	case ProtoUDP, ProtoUCOBSTCP, ProtoUTLSTCP:
	case ProtoUCOBSuTCP, ProtoUTLSuTCP:
		if !udpNetwork(network) {
			return nil, ErrSimOnly
		}
	default:
		return nil, fmt.Errorf("minion: unknown protocol %v", proto)
	}
	if dc.Retry.Attempts <= 1 {
		return dc.dialOnce(proto, network, addr)
	}
	r := dc.Retry
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 50 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = time.Second
	}
	backoff := r.BaseBackoff
	var last error
	for i := 0; i < r.Attempts; i++ {
		if i > 0 {
			d := backoff
			if r.Jitter > 0 {
				d += time.Duration(float64(d) * r.Jitter * rand.Float64())
			}
			time.Sleep(d)
			backoff *= 2
			if backoff > r.MaxBackoff {
				backoff = r.MaxBackoff
			}
		}
		c, err := dc.dialOnce(proto, network, addr)
		if err == nil {
			c, err = awaitHandshake(proto, c)
			if err == nil {
				return c, nil
			}
		}
		last = err
	}
	return nil, &DialRetryError{Attempts: r.Attempts, Last: last}
}

// awaitHandshake blocks a retrying uTLS dial until the handshake
// settles: the retry loop has to classify handshake failures, which are
// otherwise reported asynchronously through the connection's error
// paths. Other protocols pass through untouched. On failure the
// connection is closed and the handshake (or terminal) error returned.
func awaitHandshake(proto Protocol, c Conn) (Conn, error) {
	w, ok := c.(*wireConn)
	if !ok || !proto.Secure() {
		return c, nil
	}
	hs := make(chan error, 2)
	if !w.ex.Do(func() {
		u := w.inner.(utlsConn)
		switch {
		case u.c.HandshakeErr() != nil:
			hs <- u.c.HandshakeErr()
		case u.c.Ready():
			hs <- nil
		default:
			u.c.OnReady(func() { hs <- nil })
		}
	}) {
		c.Close()
		return nil, ErrConnClosed
	}
	// The terminal-error hook runs on the loop (or inline once the loop
	// is gone), where reading the handshake error is safe; it upgrades
	// the generic mapped cause to the specific handshake failure.
	OnConnError(c, func(err error) {
		if herr := w.inner.(utlsConn).c.HandshakeErr(); herr != nil {
			err = herr
		}
		hs <- err
	})
	if err := <-hs; err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// dialOnce is a single dial attempt.
func (dc DialConfig) dialOnce(proto Protocol, network, addr string) (Conn, error) {
	if proto == ProtoUDP {
		// The UDP shim is loop-cheap already (no writer goroutine); it
		// keeps a dedicated loop regardless of group settings. The kernel
		// buffer knobs apply — UDP drops silently once its socket queue
		// fills, so sizing matters more here than on TCP.
		uc, err := wire.DialUDPConfig(network, addr, wire.UDPConfig{
			SockSendBufBytes: dc.SockSendBufBytes,
			SockRecvBufBytes: dc.SockRecvBufBytes,
			DialTimeout:      dc.Timeout,
		})
		if err != nil {
			return nil, err
		}
		return wireUDPConn{uc}, nil
	}
	start := time.Now()
	var w *wireConn
	if proto.Unordered() {
		cli, err := utcp.Dial(network, addr, dc.TCPConfig.utcpConfig(), wire.UDPConfig{
			SockSendBufBytes: dc.SockSendBufBytes,
			SockRecvBufBytes: dc.SockRecvBufBytes,
			DialTimeout:      dc.Timeout,
		})
		if err != nil {
			return nil, err
		}
		w = newUTCPConn(cli, cli.Conn(), proto, dc.TCPConfig, true, cli.Close)
	} else {
		wcfg := dc.TCPConfig.wireConfig()
		wcfg.Group = dc.group()
		wcfg.DialTimeout = dc.Timeout
		sc, err := wire.Dial(network, addr, wcfg)
		if err != nil {
			return nil, err
		}
		w = newWireConn(sc, proto, dc.TCPConfig, true)
	}
	if dc.Timeout > 0 {
		// The connect spent part of the budget; the transport and uTLS
		// handshakes get the rest.
		w.boundHandshake(max(dc.Timeout-time.Since(start), time.Millisecond))
	}
	return w, nil
}

// Listener accepts Minion connections of one protocol stack over real
// sockets: TCP streams for the kernel-TCP stacks, or one shared UDP
// socket demuxed into userspace uTCP connections for the uTCP stacks.
type Listener struct {
	ln    *wire.Listener
	uln   *utcp.Listener // uTCP-over-UDP mode (ln nil)
	proto Protocol
	cfg   TCPConfig
	owned *wire.Group // listener-owned shared group (ListenConfig.Loops)
}

// Listen announces on addr for the given TCP-family protocol stack with
// dedicated per-connection loops; use ListenConfig.Listen to share loops
// across connections.
func Listen(proto Protocol, network, addr string, cfg TCPConfig) (*Listener, error) {
	return ListenConfig{TCPConfig: cfg}.Listen(proto, network, addr)
}

// Listen announces on addr with this configuration.
func (lc ListenConfig) Listen(proto Protocol, network, addr string) (*Listener, error) {
	switch proto {
	case ProtoUCOBSTCP, ProtoUTLSTCP:
	case ProtoUCOBSuTCP, ProtoUTLSuTCP:
		if !udpNetwork(network) {
			return nil, ErrSimOnly
		}
		// Userspace uTCP: one shared UDP socket, demuxed per peer. The
		// listener owns the socket, so — unlike the TCP listeners — closing
		// it also tears down the connections accepted from it. Loops/Group
		// are ignored: every endpoint shares the socket's event loop.
		uln, err := utcp.Listen(network, addr, utcp.ListenerConfig{
			Config:  lc.TCPConfig.utcpConfig(),
			Backlog: lc.Backlog,
			UDP: wire.UDPConfig{
				SockSendBufBytes: lc.SockSendBufBytes,
				SockRecvBufBytes: lc.SockRecvBufBytes,
			},
		})
		if err != nil {
			return nil, err
		}
		return &Listener{uln: uln, proto: proto, cfg: lc.TCPConfig}, nil
	case ProtoUDP:
		return nil, fmt.Errorf("minion: Listen does not support UDP; use DialUDP on both peers")
	default:
		return nil, fmt.Errorf("minion: unknown protocol %v", proto)
	}
	wcfg := lc.TCPConfig.wireConfig()
	wcfg.Backlog = lc.Backlog
	var owned *wire.Group
	switch {
	case lc.Group != nil:
		wcfg.Group = lc.Group.g
	case lc.Loops != 0:
		owned = wire.NewGroup(lc.Loops)
		wcfg.Group = owned
	}
	ln, err := wire.Listen(network, addr, wcfg)
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		return nil, err
	}
	return &Listener{ln: ln, proto: proto, cfg: lc.TCPConfig, owned: owned}, nil
}

// Accept waits for and returns the next connection.
func (l *Listener) Accept() (Conn, error) {
	if l.uln != nil {
		ep, err := l.uln.Accept()
		if err != nil {
			return nil, err
		}
		return newUTCPConn(ep, ep.Conn(), l.proto, l.cfg, false, ep.Detach), nil
	}
	sc, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return newWireConn(sc, l.proto, l.cfg, false), nil
}

// Addr returns the bound listening address.
func (l *Listener) Addr() net.Addr {
	if l.uln != nil {
		return l.uln.Addr()
	}
	return l.ln.Addr()
}

// Sharded reports whether the listener runs the SO_REUSEPORT-sharded
// accept path: one listening socket per group loop, with the kernel
// distributing incoming connections across them and each connection
// pinned to the loop that accepted it. Engages automatically for
// poll-mode groups on Linux; false means the single-socket least-loaded
// shape (uTCP listeners always answer false — one shared socket).
func (l *Listener) Sharded() bool { return l.ln != nil && l.ln.Sharded() }

// ShardAccepts returns per-loop accepted-connection counts for a sharded
// listener (nil otherwise) — the observable kernel accept distribution,
// index-aligned with the group's loops.
func (l *Listener) ShardAccepts() []uint64 {
	if l.ln == nil {
		return nil
	}
	return l.ln.ShardAccepts()
}

// Drain stops the listener gracefully: it stops accepting, tears down the
// accept machinery (for a sharded listener that means unwinding one epoll
// registration per loop), and waits for the teardown to complete or ctx
// to expire — in which case the teardown finishes in the background and
// ctx.Err() is returned. Established connections are unaffected; drain
// them with LoopGroup.Shutdown afterwards.
func (l *Listener) Drain(ctx context.Context) error {
	if l.uln != nil {
		l.uln.Close()
		return nil
	}
	err := l.ln.Drain(ctx)
	if l.owned != nil {
		l.owned.Close()
	}
	return err
}

// Close stops the listener. For the TCP stacks established connections
// are unaffected: a listener-owned loop group keeps running until the
// last of its connections closes. A uTCP listener owns the shared UDP
// socket its connections ride, so closing it aborts them too — drain the
// connections first for a graceful exit.
func (l *Listener) Close() error {
	if l.uln != nil {
		l.uln.Close()
		return nil
	}
	err := l.ln.Close()
	if l.owned != nil {
		l.owned.Close()
	}
	return err
}

// DialUDP is shorthand for Dial(ProtoUDP, network, addr, TCPConfig{}).
func DialUDP(network, addr string) (Conn, error) {
	return Dial(ProtoUDP, network, addr, TCPConfig{})
}

func (cfg TCPConfig) wireConfig() wire.Config {
	return wire.Config{
		SendBufBytes:      cfg.SendBufBytes,
		RecvBufBytes:      cfg.RecvBufBytes,
		NoDelay:           cfg.NoDelay,
		SockSendBufBytes:  cfg.SockSendBufBytes,
		SockRecvBufBytes:  cfg.SockRecvBufBytes,
		ReadIdleTimeout:   cfg.ReadIdleTimeout,
		WriteStallTimeout: cfg.WriteStallTimeout,
		StallPolicy:       cfg.Evict.stallPolicy(),
		KeepAlive:         cfg.KeepAlive,
		Governor:          cfg.Governor,
	}
}

// newFraming stacks proto's framing layer (uCOBS or uTLS) on stream s.
// Runs on s's event loop, so incoming bytes (a peer's uTLS hello can
// already be queued) never race the constructor.
func newFraming(s tcp.Stream, proto Protocol, cfg TCPConfig, isClient bool) Conn {
	if !proto.Secure() {
		return ucobsConn{ucobs.New(s)}
	}
	ucfg := utls.Config{ExplicitRecNum: cfg.ExplicitRecNum, Real: cfg.TLS.handshake()}
	if isClient {
		return utlsConn{utls.Client(s, ucfg)}
	}
	return utlsConn{utls.Server(s, ucfg)}
}

// connLoop is the executor surface every real-socket substrate offers —
// wire.Conn, utcp.Client and utcp.Endpoint: the connection's event loop,
// a blocking hand-off onto it, and its FIFO lane.
type connLoop interface {
	Loop() *rt.Loop
	Do(fn func()) bool
	Post(fn func()) bool
}

// newAdapter returns an adapter with the TrySend budget sized from cfg.
func newAdapter(ex connLoop, cfg TCPConfig) *wireConn {
	budget := cfg.SendBufBytes
	if budget == 0 {
		budget = 256 * 1024 // the wire.Config and tcp.Config default
	}
	return &wireConn{ex: ex, asyncBudget: int64(budget)}
}

// newWireConn stacks the protocol's framing layer on a kernel TCP stream.
func newWireConn(sc *wire.Conn, proto Protocol, cfg TCPConfig, isClient bool) *wireConn {
	w := newAdapter(sc, cfg)
	w.onWritable, w.abort = sc.OnWritable, sc.Abort
	w.established = true // wire.Dial and Accept return connected sockets
	sc.Do(func() {
		w.inner = newFraming(sc, proto, cfg, isClient)
		// OnError maps the wire layer's terminal error onto the public
		// vocabulary: typed timeouts pass through, ordinary closure (EOF,
		// local close) collapses to ErrConnClosed.
		sc.OnError(func(err error) {
			switch {
			case err == nil, errors.Is(err, tcp.ErrClosed), errors.Is(err, io.EOF):
				err = ErrConnClosed
			}
			w.terminate(err)
		})
		// A graceful peer FIN is a departure, not an error, but it is
		// terminal for OnConnError observers (servers reaping clients);
		// the send side stays usable for half-close protocols.
		sc.OnEOF(func() { w.reportError(ErrConnClosed) })
		sc.OnDrain(w.drain)
		if cfg.Evict == EvictShed {
			sc.OnStall(w.shedLowest)
		}
	})
	return w
}

// wireConn adapts a loop-confined framing connection on a real-socket
// substrate — a kernel TCP stream or a userspace uTCP flow over UDP — to
// the goroutine-safe public Conn interface: every call is marshalled onto
// the connection's event loop (the per-connection serial executor), so the
// protocol state machines stay lock-free exactly as they are on the
// simulator. The TrySend queue, OnResult and OnConnError contracts are the
// same on both substrates; only the construction-time hooks differ
// (newWireConn, newUTCPConn).
type wireConn struct {
	ex    connLoop
	inner Conn

	// Substrate hooks, set by the constructor: onWritable registers the
	// stream's writable-edge callback; abort hard-fails the transport,
	// whose teardown hook then reports; linger, when nonzero, bounds a
	// graceful close the transport does not bound itself (uTCP's FIN
	// handshake — the wire layer lingers on its own).
	onWritable func(func())
	abort      func(error)
	linger     time.Duration

	// TrySend bookkeeping: asyncBytes meters accepted-but-unsent payload
	// against asyncBudget from any goroutine; asyncQ holds datagrams the
	// transport pushed back on, flushed on the stream's writable edge.
	// asyncQ and flushArmed are loop-confined.
	asyncBudget int64
	asyncBytes  atomic.Int64
	asyncQ      []asyncMsg
	flushArmed  bool

	// Loop-confined lifecycle state. established is false while the
	// transport handshake (a uTCP SYN exchange) is in flight; closing is
	// set by Close or a group drain, dead once the transport reached its
	// terminal state. termErr latches the first terminal cause so an
	// OnConnError callback registered after the connection died still
	// fires.
	established bool
	closing     bool
	dead        bool
	onError     func(error)
	termErr     error
}

type asyncMsg struct {
	b   *buf.Buffer
	opt Options
}

func (w *wireConn) Send(msg []byte, opt Options) error {
	var err error
	if !w.ex.Do(func() {
		if w.closing || w.dead {
			err = ErrConnClosed
			return
		}
		err = w.inner.Send(msg, opt)
	}) {
		return ErrConnClosed
	}
	return err
}

// TrySend implements the non-blocking send of the Conn contract: it
// copies msg, reserves budget, and posts the transmission onto the
// connection's lane, so it is safe from any goroutine — including other
// connections' OnMessage callbacks (the relay pattern the marshalled
// Send cannot serve without risking a two-loop deadlock).
func (w *wireConn) TrySend(msg []byte, opt Options) error {
	n := int64(len(msg))
	if w.asyncBytes.Add(n) > w.asyncBudget {
		w.asyncBytes.Add(-n)
		return ErrWouldBlock
	}
	b := buf.From(msg)
	if !w.ex.Post(func() { w.asyncDeliver(asyncMsg{b, opt}) }) {
		w.asyncBytes.Add(-n)
		b.Release()
		return ErrConnClosed
	}
	return nil
}

// asyncDeliver runs on the loop: datagrams keep TrySend order, so
// anything behind a queued datagram queues too.
func (w *wireConn) asyncDeliver(m asyncMsg) {
	if w.closing || w.dead {
		w.settle(m, ErrConnClosed)
		return
	}
	if len(w.asyncQ) == 0 {
		err := w.inner.Send(m.b.Bytes(), m.opt)
		if !errors.Is(err, ErrWouldBlock) {
			// Sent — or a non-retryable error, in which case the datagram
			// falls exactly like data in flight at Close. Either way the
			// fate is known now.
			w.settle(m, err)
			return
		}
	}
	w.asyncQ = append(w.asyncQ, m)
	if !w.flushArmed {
		w.flushArmed = true
		w.onWritable(w.flushAsync)
	}
}

// flushAsync runs on the loop on the stream's writable edge: the retry
// pump for queued TrySend datagrams.
func (w *wireConn) flushAsync() {
	for len(w.asyncQ) > 0 {
		m := w.asyncQ[0]
		err := w.inner.Send(m.b.Bytes(), m.opt)
		if errors.Is(err, ErrWouldBlock) {
			return // the next writable edge resumes
		}
		// Sent, or a non-retryable error (oversized record, connection
		// closing): either way this datagram leaves the queue — dropping
		// just it, not its successors, keeps a single bad datagram from
		// killing the stream — and its fate is reported.
		w.asyncQ[0] = asyncMsg{}
		w.asyncQ = w.asyncQ[1:]
		w.settle(m, err)
	}
}

// settle releases a TrySend datagram's budget and buffer and reports its
// fate through OnResult, exactly once. Runs on the loop.
func (w *wireConn) settle(m asyncMsg, err error) {
	w.asyncBytes.Add(-int64(m.b.Len()))
	m.b.Release()
	if m.opt.OnResult != nil {
		m.opt.OnResult(err)
	}
}

func (w *wireConn) Recv() (msg []byte, ok bool) {
	w.ex.Do(func() { msg, ok = w.inner.Recv() })
	return
}

func (w *wireConn) OnMessage(fn func(msg []byte)) {
	w.ex.Do(func() {
		w.inner.OnMessage(fn)
		if fn == nil {
			return
		}
		// Unlike the simulator, real-socket bytes flow before the
		// application can possibly register its callback (the peer may
		// send the moment Accept returns), so datagrams queued in that
		// window are flushed through the new callback here — atomically
		// with registration, on the event loop, in arrival order.
		for {
			m, ok := w.inner.Recv()
			if !ok {
				return
			}
			fn(m)
		}
	})
}

func (w *wireConn) Close() { w.ex.Do(w.close) }

// close is Close on the loop: it sends the protocol's close sequence (uTLS
// close_notify, then FIN) and drops datagrams accepted by TrySend but
// still queued behind backpressure, exactly like data in flight — but
// with their fate reported instead of silent.
func (w *wireConn) close() {
	if w.closing {
		return
	}
	w.closing = true
	w.inner.Close()
	w.failAsync(ErrConnClosed)
	if w.linger > 0 && !w.dead {
		// A vanished peer must not pin the socket and loop forever.
		w.ex.Loop().Schedule(w.linger, func() {
			if !w.dead {
				w.abort(ErrConnClosed)
			}
		})
	}
}

// drain runs on the loop when the group begins a graceful shutdown: it
// pushes whatever queued TrySend datagrams still fit into the transport
// (so the wire layer can flush them), then closes, reporting any datagram
// that did not make it. The wire layer then waits — bounded by the
// Shutdown context — for the flushed bytes to reach the kernel before
// closing the socket.
func (w *wireConn) drain() {
	w.flushAsync()
	w.close()
}

// boundHandshake aborts the connection with ErrTimeout unless, d from now,
// its transport is established and any uTLS handshake has settled — the
// DialConfig.Timeout budget left after connect.
func (w *wireConn) boundHandshake(d time.Duration) {
	w.ex.Loop().Schedule(d, func() {
		u, isTLS := w.inner.(utlsConn)
		handshaking := isTLS && !u.c.Ready() && u.c.HandshakeErr() == nil
		if w.dead || w.established && !handshaking {
			return
		}
		w.terminate(ErrTimeout)
		w.abort(ErrTimeout)
	})
}

// shedLowest implements EvictShed, on the loop: drop the lowest-priority
// class of queued TrySend datagrams (the highest numeric Options.Priority
// present), report each through OnResult with ErrSlowClient, and return
// the payload bytes freed. Returning 0 (nothing sheddable) tells the wire
// layer to escalate to eviction. Only never-framed datagrams are shed —
// bytes already in the transport queue may sit mid-TLS-record and cannot
// be skipped.
func (w *wireConn) shedLowest() int {
	if len(w.asyncQ) == 0 {
		return 0
	}
	worst := w.asyncQ[0].opt.Priority
	for _, m := range w.asyncQ[1:] {
		if m.opt.Priority > worst {
			worst = m.opt.Priority
		}
	}
	freed, kept := 0, w.asyncQ[:0]
	for _, m := range w.asyncQ {
		if m.opt.Priority != worst {
			kept = append(kept, m)
			continue
		}
		freed += m.b.Len()
		w.settle(m, ErrSlowClient)
	}
	for i := len(kept); i < len(w.asyncQ); i++ {
		w.asyncQ[i] = asyncMsg{}
	}
	w.asyncQ = kept
	return freed
}

// terminate marks the transport dead with its mapped terminal cause: every
// queued TrySend datagram reports err and OnConnError is notified. Runs on
// the loop (or inline during post-loop teardown).
func (w *wireConn) terminate(err error) {
	w.dead = true
	w.failAsync(err)
	w.reportError(err)
}

// reportError latches the first terminal cause and delivers it to the
// OnConnError observer exactly once. Runs on the loop (or inline during
// post-loop teardown).
func (w *wireConn) reportError(err error) {
	if w.termErr == nil {
		w.termErr = err
	}
	if w.onError != nil {
		fn := w.onError
		w.onError = nil
		fn(w.termErr)
	}
}

// failAsync drops every queued TrySend datagram with err, reporting each
// through its OnResult. Runs on the loop.
func (w *wireConn) failAsync(err error) {
	for i, m := range w.asyncQ {
		w.settle(m, err)
		w.asyncQ[i] = asyncMsg{}
	}
	w.asyncQ = w.asyncQ[:0]
}

// Inner returns the framing-layer connection for instrumentation; use it
// only on the connection's event loop (from a callback).
func (w *wireConn) Inner() Conn { return w.inner }

// OnConnError registers fn to run exactly once when c reaches a terminal
// state — peer close, socket error, eviction, or local Close — with the
// same mapped cause TrySend's OnResult reports (ErrConnClosed for
// ordinary closure, typed errors such as ErrTimeout passed through). fn
// runs on the connection's event loop; if the connection is already dead
// at registration, fn fires immediately with the latched cause. This is
// how servers holding many accepted connections (the relay pattern)
// learn a client left without polling. Reports false — and never calls
// fn — when c's substrate has no terminal-error reporting (simulated
// endpoints, UDP shims).
func OnConnError(c Conn, fn func(error)) bool {
	w, ok := c.(*wireConn)
	if !ok {
		return false
	}
	if fn == nil {
		return true
	}
	if !w.ex.Do(func() {
		if w.termErr != nil {
			fn(w.termErr)
			return
		}
		w.onError = fn
	}) {
		// Loop already gone: the connection is dead and its terminal
		// error was delivered (or discarded) during teardown.
		fn(ErrConnClosed)
	}
	return true
}

// SupportsPriorities reports whether c's substrate honors
// Options.Priority and Options.Squash on sends. Stock uTLS cannot
// reorder its ciphertext stream — priorities there require the explicit
// record-number extension (TCPConfig.ExplicitRecNum, and both endpoints
// must negotiate it) — so a prioritized send on a stock flow fails with
// a typed error instead of silently corrupting record order. Callers
// that degrade gracefully (the relay) probe once per connection and
// drop the priority tag when the answer is false. For uTLS the answer
// is settled only once the handshake completes; probing from a message
// callback (any delivered datagram implies a finished handshake) is
// always safe.
func SupportsPriorities(c Conn) bool {
	w, ok := c.(*wireConn)
	if !ok {
		return true // simulated substrates accept (and ignore) the tag
	}
	sup := true
	w.ex.Do(func() {
		if u, ok := w.inner.(utlsConn); ok {
			sup = u.c.ExplicitRecNumActive()
		}
	})
	return sup
}

// ErrConnClosed is returned by operations on a closed wire connection.
var ErrConnClosed = fmt.Errorf("minion: connection closed")

// ErrWouldBlock is the retryable backpressure error: Send's framed record
// did not fit the transport's send buffer right now. It is the same
// sentinel value the transports return (errors.Is-comparable through any
// wrapping), exported here so external users of the module can
// distinguish "retry later" from a fatal error.
var ErrWouldBlock = tcp.ErrWouldBlock

// wireUDPConn adapts the real-socket UDP shim to the Minion interface.
type wireUDPConn struct{ c *wire.UDPConn }

func (u wireUDPConn) Send(msg []byte, opt Options) error {
	// Like the simulated shim: no send queue, priority and squash are
	// meaningless but harmless.
	return u.c.Send(msg)
}
func (u wireUDPConn) TrySend(msg []byte, opt Options) error {
	switch err := u.c.TrySendResult(msg, opt.OnResult); {
	case err == nil:
		return nil
	case errors.Is(err, ErrWouldBlock):
		return ErrWouldBlock
	default:
		return ErrConnClosed
	}
}
func (u wireUDPConn) Recv() ([]byte, bool)      { return u.c.Recv() }
func (u wireUDPConn) OnMessage(fn func([]byte)) { u.c.OnMessage(fn) }
func (u wireUDPConn) Close()                    { u.c.Close() }
