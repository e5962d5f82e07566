// Package minion is the public facade of the Minion architecture
// (Nowlan et al., "Fitting Square Pegs Through Round Pipes: Unordered
// Delivery Wire-Compatible with TCP and TLS", NSDI 2012): a uniform
// unordered-datagram service that applications link in like DTLS, carried
// over whichever substrate the network permits (paper §3).
//
// The Conn interface is implemented by every Minion protocol:
//
//   - uCOBS over TCP or uTCP (minion/internal/ucobs): plain datagrams,
//     COBS-framed inside a byte-stream wire-identical to TCP;
//   - uTLS over TCP or uTCP (minion/internal/utls): encrypted datagrams
//     inside a stream wire-identical to TLS/HTTPS;
//   - the UDP shim (minion/internal/udp) for paths where UDP works.
//
// Endpoints run over two substrates: NewPair wires a connected pair
// through simulated network paths (minion/internal/netem) on the
// deterministic simulator, while Dial/Listen/DialUDP run the same framing
// layers over real kernel sockets (see wire.go — LoopGroup/LoopMode pick
// the event-loop shape at scale). Negotiate implements the simple
// "try UDP, fall back to the TCP family" selection the paper describes
// applications using today (§3.2).
//
// uTLS stacks speak one of two handshakes: with TCPConfig.TLS set, a
// genuine TLS 1.2 handshake (certificates, ECDHE, the works) that stock
// TLS implementations accept — a crypto/tls peer on the far end of a
// Dial/Listen socket completes it and exchanges data — and with it unset,
// a simulated pre-shared-key hello used by the deterministic design-space
// experiments.
//
// Internally every protocol stack passes pooled, reference-counted buffers
// (minion/internal/buf) between layers instead of copying: framing encodes
// into a pooled buffer, segments slice it zero-copy onto the wire, and
// receivers deliver refcounted views. The Conn interface keeps its plain
// []byte signatures; see the Conn documentation for the resulting
// ownership rules.
package minion

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"time"

	"minion/internal/netem"
	"minion/internal/rt"
	"minion/internal/tcp"
	"minion/internal/tlshake"
	"minion/internal/ucobs"
	"minion/internal/udp"
	"minion/internal/utls"
)

// Options control one datagram send (the uTCP tag header, paper §4.2).
type Options struct {
	// Priority: lower value = higher priority; priority takes effect only
	// when the sender's substrate supports send-side reordering.
	Priority uint32
	// Squash replaces queued untransmitted datagrams with the same tag.
	Squash bool
	// OnResult, when non-nil, reports the fate of a datagram accepted by
	// TrySend: invoked exactly once per accepted send — nil when the
	// transport took the datagram, the drop error otherwise (a datagram
	// queued behind backpressure and then lost to connection teardown
	// reports ErrConnClosed instead of vanishing silently). A TrySend
	// that itself returns an error never accepted the datagram and never
	// invokes OnResult. On real-socket stacks the callback runs on the
	// connection's event loop; on simulated substrates TrySend is
	// synchronous, so OnResult(nil) fires before TrySend returns. Send
	// ignores OnResult — its return value already reports the outcome.
	OnResult func(err error)
}

// Conn is Minion's uniform unordered datagram interface (paper §3.1).
//
// Buffer ownership (the memory model of the zero-copy datapath):
//
//   - Send does not retain msg: the bytes are consumed (framed, sealed or
//     copied into a pooled buffer) before Send returns, so the caller may
//     reuse msg immediately.
//   - OnMessage delivery buffers belong to the stack: msg is a view of a
//     pooled buffer that is recycled when the callback returns. A callback
//     that keeps the bytes must copy them — append([]byte(nil), msg...) is
//     the copy-on-demand escape hatch.
//   - Recv returns caller-owned bytes: queued datagrams are detached from
//     the pool, so they remain valid indefinitely.
type Conn interface {
	// Send transmits one datagram. Delivery is unordered: later datagrams
	// may arrive first. Reliability depends on the substrate (TCP-family
	// substrates are reliable, UDP is not). msg is not retained.
	Send(msg []byte, opt Options) error
	// TrySend queues one datagram without ever blocking on the
	// connection's event loop, copying msg before it returns. It is the
	// send to use from inside another connection's OnMessage callback —
	// the cross-connection relay pattern — where Send would marshal onto
	// this connection's loop and can deadlock two loops against each
	// other (see Dial). Backpressure surfaces immediately as
	// ErrWouldBlock; accepted datagrams transmit asynchronously, in
	// TrySend order, retried internally until the transport accepts them
	// (an error after acceptance drops the datagram, exactly like data in
	// flight at Close). On simulated substrates the runtime is already
	// single-threaded, so TrySend is simply Send.
	TrySend(msg []byte, opt Options) error
	// Recv pops a received datagram queued while no OnMessage handler was
	// registered. The returned slice is owned by the caller.
	Recv() (msg []byte, ok bool)
	// OnMessage registers the delivery callback. msg is valid only until
	// the callback returns; copy to keep.
	OnMessage(fn func(msg []byte))
	// Close tears the connection down (graceful where the substrate
	// supports it).
	Close()
}

// Protocol selects a Minion substrate stack.
type Protocol int

// Available protocol stacks.
const (
	// ProtoUDP is the shim over plain (simulated) UDP.
	ProtoUDP Protocol = iota
	// ProtoUCOBSTCP is uCOBS over unmodified TCP: in-order datagram
	// delivery, maximal compatibility.
	ProtoUCOBSTCP
	// ProtoUCOBSuTCP is uCOBS over uTCP: true unordered delivery plus
	// send-side prioritization.
	ProtoUCOBSuTCP
	// ProtoUTLSTCP is uTLS over unmodified TCP (wire-identical to HTTPS;
	// with TCPConfig.TLS it interoperates with stock TLS peers).
	ProtoUTLSTCP
	// ProtoUTLSuTCP is uTLS over uTCP: encrypted unordered delivery.
	ProtoUTLSuTCP
)

var protoNames = map[Protocol]string{
	ProtoUDP:       "udp",
	ProtoUCOBSTCP:  "ucobs/tcp",
	ProtoUCOBSuTCP: "ucobs/utcp",
	ProtoUTLSTCP:   "utls/tcp",
	ProtoUTLSuTCP:  "utls/utcp",
}

func (p Protocol) String() string {
	if n, ok := protoNames[p]; ok {
		return n
	}
	return "invalid"
}

// Unordered reports whether the stack delivers datagrams out of order
// (relieving TCP's latency tax, §3.1).
func (p Protocol) Unordered() bool { return p != ProtoUCOBSTCP && p != ProtoUTLSTCP }

// Secure reports whether the stack encrypts and authenticates payloads.
func (p Protocol) Secure() bool { return p == ProtoUTLSTCP || p == ProtoUTLSuTCP }

// Reliable reports whether every datagram is eventually delivered.
func (p Protocol) Reliable() bool { return p != ProtoUDP }

// Preferences describe what an application wants from its substrate
// (input to Negotiate).
type Preferences struct {
	// RequireSecure restricts selection to end-to-end encrypted stacks.
	RequireSecure bool
	// RequireReliable excludes UDP.
	RequireReliable bool
	// PreferUnordered favors out-of-order-capable stacks.
	PreferUnordered bool
}

// PathConstraints describe what the network permits, as discovered by
// probing (paper §3.2: applications commonly "attempt a UDP connection
// first and fall back to TCP if that fails").
type PathConstraints struct {
	// UDPBlocked: middleboxes drop UDP on this path.
	UDPBlocked bool
	// TCPOnly443: only TLS-looking traffic on port 443 survives
	// (the hostile-network case motivating uTLS, §6). Record-shape DPI
	// passes any uTLS stack — even the compat handshake's records are
	// well-formed TLS.
	TCPOnly443 bool
	// DPIValidatesHandshake: middleboxes go beyond record framing and
	// validate the TLS handshake itself (certificates, ClientHello
	// structure). Only a uTLS stack running the genuine TLS 1.2
	// handshake traverses such a path — the caller must supply
	// TCPConfig.TLS alongside the negotiated protocol.
	DPIValidatesHandshake bool
	// PeerSupportsUTCP: the remote OS has the uTCP extensions.
	PeerSupportsUTCP bool
}

// Negotiate picks the best protocol satisfying prefs under the path
// constraints — Minion's currently-simple protocol selection (§3.2; the
// dynamic negotiation protocol is future work in the paper too).
//
// Negotiate returns the protocol stack only; it does not choose key
// material. On paths where DPIValidatesHandshake (or any policy) demands
// genuine TLS, pair the returned uTLS protocol with TCPConfig.TLS — a
// certificate on the listening side, trust anchors on the dialing side —
// so the handshake on the wire is one a stock TLS stack (and the DPI)
// accepts.
func Negotiate(prefs Preferences, path PathConstraints) Protocol {
	if path.TCPOnly443 || path.DPIValidatesHandshake || prefs.RequireSecure {
		if path.PeerSupportsUTCP {
			return ProtoUTLSuTCP
		}
		return ProtoUTLSTCP
	}
	if !path.UDPBlocked && !prefs.RequireReliable && prefs.PreferUnordered {
		return ProtoUDP
	}
	if path.PeerSupportsUTCP {
		return ProtoUCOBSuTCP
	}
	return ProtoUCOBSTCP
}

// TLSConfig configures the genuine TLS 1.2 handshake on uTLS stacks
// (ECDHE_RSA_WITH_AES_128_GCM_SHA256 preferred, with
// ECDHE_RSA_WITH_AES_128_CBC_SHA as the compatibility fallback; both
// keep the per-record self-description that out-of-order delivery
// rides). When TCPConfig.TLS is
// set, the uTLS endpoint's bytes are accepted by stock TLS
// implementations: a crypto/tls peer completes the handshake and
// exchanges application data with it, and middlebox DPI that validates
// TLS sees an ordinary HTTPS-style session. When nil, uTLS runs the
// simulated compat handshake (pre-shared keys, deterministic — the
// design-space experiments' mode), which only another Minion endpoint
// understands.
type TLSConfig struct {
	// Certificate is the server-side identity: its chain travels in the
	// handshake and its RSA key signs the key exchange. Required on
	// listeners/servers; unused by dialers.
	Certificate *tls.Certificate
	// RootCAs are the client's trust anchors (nil: system pool).
	RootCAs *x509.CertPool
	// ServerName is the hostname the client expects the server
	// certificate to match (also sent as SNI).
	ServerName string
	// InsecureSkipVerify disables the client's chain and name checks
	// (test topologies only).
	InsecureSkipVerify bool
	// CipherSuites restricts and orders the offered/accepted TLS 1.2
	// ciphersuites (crypto/tls constants, e.g.
	// tls.TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256). Empty means both
	// supported suites, GCM preferred. Unsupported IDs are ignored.
	CipherSuites []uint16
}

// SelfSignedTLS generates a throwaway self-signed RSA certificate valid
// for the given hosts (DNS names or IP addresses) plus a pool trusting
// it — the quickstart/test credential for the genuine TLS 1.2 handshake:
// hand the certificate to the listener's TLSConfig.Certificate and the
// pool to the dialer's TLSConfig.RootCAs (or to a stock TLS client).
// Production deployments load a real certificate instead.
func SelfSignedTLS(hosts ...string) (tls.Certificate, *x509.CertPool, error) {
	return tlshake.SelfSigned(hosts...)
}

func (tc *TLSConfig) handshake() *tlshake.Config {
	if tc == nil {
		return nil
	}
	return &tlshake.Config{
		Certificate:        tc.Certificate,
		RootCAs:            tc.RootCAs,
		ServerName:         tc.ServerName,
		InsecureSkipVerify: tc.InsecureSkipVerify,
		CipherSuites:       tc.CipherSuites,
	}
}

// TCPConfig tunes the TCP-family substrates built by NewPair and
// Dial/Listen.
type TCPConfig struct {
	// NoDelay disables Nagle (recommended for datagram traffic; the
	// paper's experiments disable it).
	NoDelay bool
	// CoalesceWrites enables the §8.1 small-write packing fix on uTCP.
	CoalesceWrites bool
	// SendBufBytes/RecvBufBytes override socket buffer sizes.
	SendBufBytes, RecvBufBytes int
	// SockSendBufBytes/SockRecvBufBytes, when positive, set the kernel
	// socket buffers (SO_SNDBUF/SO_RCVBUF) on real-socket substrates
	// (Dial/Listen, including ProtoUDP). Zero leaves the kernel's
	// tuning in place — on Linux TCP that is per-connection autotuning,
	// which a fixed size would disable, so zero is the right default
	// unless profiling shows the kernel queue as the bottleneck.
	// Ignored by simulated substrates (NewPair).
	SockSendBufBytes, SockRecvBufBytes int
	// ExplicitRecNum enables the uTLS §6.1 extension on both endpoints.
	// It negotiates over the compat handshake only and is ignored when
	// TLS is set (genuine TLS 1.2 has no field that could carry it
	// without changing observable bytes).
	ExplicitRecNum bool
	// TLS, when non-nil, runs the genuine TLS 1.2 handshake on uTLS
	// stacks — required for interop with stock TLS peers. See TLSConfig.
	TLS *TLSConfig
	// ReadIdleTimeout, when positive, closes a real-socket connection
	// with ErrTimeout after that long without bytes from the peer. Driven
	// by the connection's event-loop timer wheel (no extra goroutines);
	// detection granularity is the timeout itself, so a dead peer is
	// evicted between T and ~2T after its last byte. Zero (the default)
	// never times out. Ignored by simulated substrates.
	ReadIdleTimeout time.Duration
	// WriteStallTimeout, when positive, bounds how long queued send bytes
	// may sit with no kernel progress — the slow-client guard: a peer
	// that stopped reading is pinning pooled buffers. On expiry the Evict
	// policy applies. Zero never stalls out. Ignored by simulated
	// substrates.
	WriteStallTimeout time.Duration
	// Evict selects what WriteStallTimeout expiry does: close the
	// connection (default) or shed lowest-priority queued datagrams
	// first. See EvictPolicy.
	Evict EvictPolicy
	// KeepAlive tunes TCP keepalive on real sockets: positive sets the
	// probe period, negative disables probing, zero keeps the Go runtime
	// default (enabled, 15s). Ignored by simulated substrates and UDP.
	KeepAlive time.Duration
	// Governor, when non-nil, meters this connection's queued send and
	// receive bytes against a shared resource ledger (see NewGovernor).
	// Listeners configured with a governor additionally pause accepting
	// while it reports overload — admission control at the front door.
	// Metering never rejects mid-stream bytes; shedding and refusal are
	// the business of admission layers reading the same governor. Ignored
	// by simulated substrates.
	Governor *Governor
}

// Pair is a connected pair of Minion endpoints plus access to the
// underlying transports for instrumentation.
type Pair struct {
	A, B Conn
	// TCPA/TCPB are the underlying TCP connections (nil for ProtoUDP).
	TCPA, TCPB *tcp.Conn
	// UDPA/UDPB are the underlying UDP endpoints (nil otherwise).
	UDPA, UDPB *udp.Conn
}

// NewPair builds a connected pair of Minion endpoints of the given
// protocol, wired through the two unidirectional path elements (nil for
// ideal wires) on the given runtime — usually a *sim.Simulator; run it to
// complete connection establishment. For endpoints over real sockets use
// Dial/Listen instead.
func NewPair(r rt.Runtime, proto Protocol, cfg TCPConfig, aToB, bToA netem.Element) *Pair {
	switch proto {
	case ProtoUDP:
		ua, ub := udp.New(), udp.New()
		if aToB == nil {
			aToB = netem.NewLink(r, netem.LinkConfig{})
		}
		if bToA == nil {
			bToA = netem.NewLink(r, netem.LinkConfig{})
		}
		udp.Wire(ua, ub, aToB, bToA)
		return &Pair{A: udpConn{ua}, B: udpConn{ub}, UDPA: ua, UDPB: ub}
	case ProtoUCOBSTCP, ProtoUCOBSuTCP:
		ta, tb := tcp.NewPair(r, cfg.tcpConfig(proto.Unordered()), cfg.tcpConfig(proto.Unordered()), aToB, bToA)
		return &Pair{A: ucobsConn{ucobs.New(ta)}, B: ucobsConn{ucobs.New(tb)}, TCPA: ta, TCPB: tb}
	case ProtoUTLSTCP, ProtoUTLSuTCP:
		ta, tb := tcp.NewPair(r, cfg.tcpConfig(proto.Unordered()), cfg.tcpConfig(proto.Unordered()), aToB, bToA)
		ucfg := utls.Config{ExplicitRecNum: cfg.ExplicitRecNum, Real: cfg.TLS.handshake()}
		srv := utls.Server(tb, ucfg)
		cli := utls.Client(ta, ucfg)
		return &Pair{A: utlsConn{cli}, B: utlsConn{srv}, TCPA: ta, TCPB: tb}
	}
	panic("minion: unknown protocol")
}

func (cfg TCPConfig) tcpConfig(unordered bool) tcp.Config {
	return tcp.Config{
		NoDelay:        cfg.NoDelay,
		Unordered:      unordered,
		UnorderedSend:  unordered,
		CoalesceWrites: cfg.CoalesceWrites || unordered, // fix on by default for uTCP
		SendBufBytes:   cfg.SendBufBytes,
		RecvBufBytes:   cfg.RecvBufBytes,
	}
}

// utcpConfig is tcpConfig for uTCP over real UDP sockets, which recovers
// losses with RACK-TLP. The simulator keeps the default recovery the
// paper's Linux 2.6.34 figures were measured with.
func (cfg TCPConfig) utcpConfig() tcp.Config {
	c := cfg.tcpConfig(true)
	c.RACK = true
	return c
}

// ErrUnreliableSubstrate is returned by udp sends that cannot honor
// options requiring reliability-side machinery.
var ErrUnreliableSubstrate = errors.New("minion: substrate does not support this option")

// syncTryResult applies the Options.OnResult contract to substrates
// whose TrySend is a synchronous Send: acceptance and transmission are
// the same instant, so a successful send reports nil immediately and a
// failed one reports through the return value alone.
func syncTryResult(err error, opt Options) error {
	if err == nil && opt.OnResult != nil {
		opt.OnResult(nil)
	}
	return err
}

// udpConn adapts udp.Conn to the Minion interface (the trivial shim).
type udpConn struct{ c *udp.Conn }

func (u udpConn) Send(msg []byte, opt Options) error {
	// UDP has no send queue: priority and squash are meaningless but
	// harmless (every datagram departs immediately).
	return u.c.Send(msg)
}
func (u udpConn) TrySend(msg []byte, opt Options) error { return syncTryResult(u.Send(msg, opt), opt) }
func (u udpConn) Recv() ([]byte, bool)                  { return u.c.Recv() }
func (u udpConn) OnMessage(fn func([]byte))             { u.c.OnMessage(fn) }
func (u udpConn) Close()                                {}

// ucobsConn adapts ucobs.Conn.
type ucobsConn struct{ c *ucobs.Conn }

func (u ucobsConn) Send(msg []byte, opt Options) error {
	return u.c.Send(msg, ucobs.Options{Priority: opt.Priority, Squash: opt.Squash})
}
func (u ucobsConn) TrySend(msg []byte, opt Options) error {
	return syncTryResult(u.Send(msg, opt), opt)
}
func (u ucobsConn) Recv() ([]byte, bool)      { return u.c.Recv() }
func (u ucobsConn) OnMessage(fn func([]byte)) { u.c.OnMessage(fn) }
func (u ucobsConn) Close()                    { u.c.Close() }

// UCOBS exposes the underlying protocol connection for stats.
func (u ucobsConn) UCOBS() *ucobs.Conn { return u.c }

// utlsConn adapts utls.Conn.
type utlsConn struct{ c *utls.Conn }

func (u utlsConn) Send(msg []byte, opt Options) error {
	return u.c.Send(msg, utls.Options{Priority: opt.Priority, Squash: opt.Squash})
}
func (u utlsConn) TrySend(msg []byte, opt Options) error { return syncTryResult(u.Send(msg, opt), opt) }
func (u utlsConn) Recv() ([]byte, bool)                  { return u.c.Recv() }
func (u utlsConn) OnMessage(fn func([]byte))             { u.c.OnMessage(fn) }
func (u utlsConn) Close()                                { u.c.Close() }

// UTLS exposes the underlying protocol connection for stats.
func (u utlsConn) UTLS() *utls.Conn { return u.c }

// UCOBSOf extracts the uCOBS connection from a Minion Conn, if that is its
// substrate.
func UCOBSOf(c Conn) (*ucobs.Conn, bool) {
	if u, ok := c.(ucobsConn); ok {
		return u.c, true
	}
	return nil, false
}

// UTLSOf extracts the uTLS connection from a Minion Conn.
func UTLSOf(c Conn) (*utls.Conn, bool) {
	if u, ok := c.(utlsConn); ok {
		return u.c, true
	}
	return nil, false
}
