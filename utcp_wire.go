package minion

import (
	"errors"
	"io"
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

// The uTCP protocol stacks run over real sockets by hosting the paper's
// uTCP machinery in userspace on a UDP substrate: every uTCP segment
// travels as one UDP datagram (internal/utcp's packet codec), so the
// kernel never reorders or delays delivery and SO_UNORDERED semantics —
// immediate out-of-order delivery, send-side priorities — survive contact
// with a real network. Dial and Listen accept ProtoUCOBSuTCP and
// ProtoUTLSuTCP on "udp" networks; on "tcp" networks those stacks still
// return ErrSimOnly, because kernel TCP cannot deliver out of order.

// Transport identifies the real-socket substrate a negotiated protocol
// stack rides — the network argument to pass to Dial/Listen.
type Transport int

const (
	// TransportTCP is a kernel TCP socket ("tcp" networks): uCOBS/uTLS
	// framing over an ordinary byte stream.
	TransportTCP Transport = iota
	// TransportUDP is a UDP socket ("udp" networks): the plain shim
	// (ProtoUDP) or userspace uTCP carried datagram-per-segment.
	TransportUDP
)

// Network returns the Dial/Listen network string for the transport.
func (t Transport) Network() string {
	if t == TransportUDP {
		return "udp"
	}
	return "tcp"
}

func (t Transport) String() string { return t.Network() }

// NegotiateTransport picks the best protocol stack this library can dial
// today, together with the substrate to dial it on. It extends Negotiate
// with deployment reality: the uTCP stacks need no kernel support when
// the path lets UDP through (they ride the userspace uTCP-over-UDP
// substrate), but on UDP-hostile or DPI-scrutinized paths they cannot run
// at all and degrade to their kernel-TCP siblings — unlike Negotiate,
// which answers the paper's question of what the endpoints would run if
// uTCP kernels shipped (and is pinned to keep answering it that way).
func NegotiateTransport(prefs Preferences, path PathConstraints) (Protocol, Transport) {
	udpOK := !path.UDPBlocked && !path.TCPOnly443 && !path.DPIValidatesHandshake
	if udpOK && path.PeerSupportsUTCP {
		if prefs.RequireSecure {
			return ProtoUTLSuTCP, TransportUDP
		}
		if !prefs.RequireReliable && prefs.PreferUnordered {
			return ProtoUDP, TransportUDP
		}
		return ProtoUCOBSuTCP, TransportUDP
	}
	switch p := Negotiate(prefs, path); p {
	case ProtoUDP:
		return p, TransportUDP
	case ProtoUCOBSuTCP:
		return ProtoUCOBSTCP, TransportTCP
	case ProtoUTLSuTCP:
		return ProtoUTLSTCP, TransportTCP
	default:
		return p, TransportTCP
	}
}

// udpNetwork reports whether network names a UDP socket family.
func udpNetwork(network string) bool {
	switch network {
	case "udp", "udp4", "udp6":
		return true
	}
	return false
}

// utcpCloseLinger bounds a graceful uTCP close: if the FIN handshake has
// not completed this long after Close, the connection is aborted (RST) so
// its socket and loop are always reclaimed.
const utcpCloseLinger = 3 * time.Second

// dialUTCP opens a userspace uTCP connection over a connected UDP socket
// and stacks the protocol's framing on it.
func (dc DialConfig) dialUTCP(proto Protocol, network, addr string) (Conn, error) {
	cli, err := utcp.Dial(network, addr, dc.TCPConfig.utcpConfig(), wire.UDPConfig{
		SockSendBufBytes: dc.SockSendBufBytes,
		SockRecvBufBytes: dc.SockRecvBufBytes,
		DialTimeout:      dc.Timeout,
	})
	if err != nil {
		return nil, err
	}
	c := newUTCPConn(cli, proto, dc.TCPConfig, true, cli.Close)
	if dc.Timeout > 0 {
		// Bound the uTCP handshake too: a peer that never answers the SYN
		// would otherwise retry until the connection's own give-up timer.
		w := c.(*utcpConn)
		cli.Loop().Schedule(dc.Timeout, func() {
			if w.tc != nil && w.tc.State() == tcp.StateSynSent {
				w.tc.Abort()
			}
		})
	}
	return c, nil
}

// utcpTransport is the loop surface utcp.Client and utcp.Endpoint share:
// a loop-confined uTCP connection plus the executor to reach it on.
type utcpTransport interface {
	Conn() *tcp.Conn
	Loop() *rt.Loop
	Do(fn func()) bool
	Post(fn func()) bool
}

// newUTCPConn stacks the protocol's framing layer on a userspace uTCP
// connection, exactly as newWireConn does on a kernel stream. release
// reclaims the socket resources (dialed socket + loop, or the listener's
// demux entry) and runs once, after the ARQ reaches its terminal state.
func newUTCPConn(tr utcpTransport, proto Protocol, cfg TCPConfig, isClient bool, release func()) Conn {
	budget := cfg.SendBufBytes
	if budget == 0 {
		budget = 256 * 1024 // tcp.Config default send buffer
	}
	w := &utcpConn{tr: tr, release: release, asyncBudget: int64(budget)}
	if !tr.Do(func() {
		w.tc = tr.Conn()
		switch proto {
		case ProtoUCOBSuTCP:
			w.inner = ucobsConn{ucobs.New(w.tc)}
		case ProtoUTLSuTCP:
			ucfg := utls.Config{ExplicitRecNum: cfg.ExplicitRecNum, Real: cfg.TLS.handshake()}
			if isClient {
				w.inner = utlsConn{utls.Client(w.tc, ucfg)}
			} else {
				w.inner = utlsConn{utls.Server(w.tc, ucfg)}
			}
		}
		// The framing layer owns OnReadable; the adapter owns OnWritable
		// (its TrySend flush pump) and OnClose (terminal-state fan-out).
		w.tc.OnWritable(w.flushAsync)
		w.tc.OnClose(w.onTeardown)
	}) {
		// Loop already gone (listener closing under us): a dead connection.
		w.termErr = ErrConnClosed
		if release != nil {
			release()
		}
	}
	return w
}

// utcpConn adapts a loop-confined uTCP framing stack to the
// goroutine-safe Conn interface — the userspace-uTCP sibling of wireConn,
// with the same TrySend budget/queue machinery and OnResult/OnConnError
// contracts.
type utcpConn struct {
	tr      utcpTransport
	tc      *tcp.Conn
	inner   Conn
	release func() // loop-confined hand-off; invoked exactly once

	asyncBudget int64
	asyncBytes  atomic.Int64
	asyncQ      []asyncMsg // loop-confined

	// Loop-confined lifecycle state.
	closing bool
	dead    bool
	onError func(error)
	termErr error
}

// onTeardown runs on the loop when the uTCP state machine reaches its
// terminal state: graceful close completion, RST, or timeout. It maps the
// transport cause onto the public error vocabulary, fails queued TrySends
// exactly once, notifies OnConnError, and releases the socket.
func (w *utcpConn) onTeardown(err error) {
	w.dead = true
	switch {
	case err == nil, errors.Is(err, tcp.ErrClosed), errors.Is(err, io.EOF):
		err = ErrConnClosed
	case errors.Is(err, tcp.ErrTimeout):
		err = ErrTimeout
	default:
		err = ErrConnClosed
	}
	w.failAsync(err)
	w.reportError(err)
	if r := w.release; r != nil {
		w.release = nil
		// Socket teardown joins the loop (reader hand-off, drain barriers),
		// so it cannot run inline on the loop itself.
		go r()
	}
}

func (w *utcpConn) Send(msg []byte, opt Options) error {
	var err error
	if !w.tr.Do(func() {
		if w.inner == nil || w.closing {
			err = ErrConnClosed
			return
		}
		err = w.inner.Send(msg, opt)
	}) {
		return ErrConnClosed
	}
	return err
}

// TrySend implements the non-blocking relay-safe send: copy, reserve
// budget, post onto the connection's loop. Identical contract to
// wireConn.TrySend.
func (w *utcpConn) TrySend(msg []byte, opt Options) error {
	n := int64(len(msg))
	if w.asyncBytes.Add(n) > w.asyncBudget {
		w.asyncBytes.Add(-n)
		return ErrWouldBlock
	}
	b := buf.From(msg)
	if !w.tr.Post(func() { w.asyncDeliver(b, opt) }) {
		w.asyncBytes.Add(-n)
		b.Release()
		return ErrConnClosed
	}
	return nil
}

// asyncDeliver runs on the loop, preserving TrySend order.
func (w *utcpConn) asyncDeliver(b *buf.Buffer, opt Options) {
	if w.inner == nil || w.closing || w.dead {
		w.asyncBytes.Add(-int64(b.Len()))
		b.Release()
		if opt.OnResult != nil {
			opt.OnResult(ErrConnClosed)
		}
		return
	}
	if len(w.asyncQ) > 0 {
		w.asyncQ = append(w.asyncQ, asyncMsg{b, opt})
		return
	}
	err := w.inner.Send(b.Bytes(), opt)
	if errors.Is(err, ErrWouldBlock) {
		w.asyncQ = append(w.asyncQ, asyncMsg{b, opt})
		return
	}
	w.asyncBytes.Add(-int64(b.Len()))
	b.Release()
	if opt.OnResult != nil {
		opt.OnResult(err)
	}
}

// flushAsync runs on the loop on every send-buffer-writable edge: the
// retry pump for queued TrySend datagrams.
func (w *utcpConn) flushAsync() {
	for len(w.asyncQ) > 0 {
		m := w.asyncQ[0]
		err := w.inner.Send(m.b.Bytes(), m.opt)
		if errors.Is(err, ErrWouldBlock) {
			return // the next writable edge resumes
		}
		w.asyncQ[0] = asyncMsg{}
		w.asyncQ = w.asyncQ[1:]
		w.asyncBytes.Add(-int64(m.b.Len()))
		m.b.Release()
		if m.opt.OnResult != nil {
			m.opt.OnResult(err)
		}
	}
}

func (w *utcpConn) Recv() (msg []byte, ok bool) {
	w.tr.Do(func() {
		if w.inner != nil {
			msg, ok = w.inner.Recv()
		}
	})
	return
}

func (w *utcpConn) OnMessage(fn func(msg []byte)) {
	w.tr.Do(func() {
		if w.inner == nil {
			return
		}
		w.inner.OnMessage(fn)
		if fn == nil {
			return
		}
		// Flush datagrams that arrived before registration, atomically with
		// it, in arrival order — same contract as wireConn.OnMessage.
		for {
			m, ok := w.inner.Recv()
			if !ok {
				return
			}
			fn(m)
		}
	})
}

func (w *utcpConn) Close() {
	w.tr.Do(func() {
		if w.closing || w.inner == nil {
			return
		}
		w.closing = true
		w.inner.Close()
		w.failAsync(ErrConnClosed)
		if !w.dead {
			// Bound the FIN handshake: a vanished peer must not pin the
			// socket and loop forever.
			w.tr.Loop().Schedule(utcpCloseLinger, func() {
				if !w.dead {
					w.tc.Abort()
				}
			})
		}
	})
}

// reportError latches the first terminal cause and delivers it to the
// OnConnError observer exactly once. Runs on the loop.
func (w *utcpConn) reportError(err error) {
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
// through its OnResult exactly once. Runs on the loop.
func (w *utcpConn) failAsync(err error) {
	for i, m := range w.asyncQ {
		w.asyncBytes.Add(-int64(m.b.Len()))
		m.b.Release()
		if m.opt.OnResult != nil {
			m.opt.OnResult(err)
		}
		w.asyncQ[i] = asyncMsg{}
	}
	w.asyncQ = w.asyncQ[:0]
}

// Inner returns the framing-layer connection for instrumentation; touch
// it only on the connection's loop (via the transport's Do).
func (w *utcpConn) Inner() Conn { return w.inner }
