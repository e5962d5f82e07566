package wire

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"minion/internal/buf"
	"minion/internal/rt"
	"minion/internal/tcp"
	"minion/internal/udp"
)

// UDPConfig parameterizes the UDP shim's socket. The zero value is
// usable.
type UDPConfig struct {
	// SockSendBufBytes sets the kernel socket send buffer (SO_SNDBUF).
	// Zero means the 1 MiB default below; negative leaves the kernel
	// default untouched.
	SockSendBufBytes int
	// SockRecvBufBytes sets the kernel socket receive buffer (SO_RCVBUF).
	// Zero means the 1 MiB default; negative leaves the kernel default.
	// Unlike TCP, UDP has no autotuning and no flow control: once the
	// socket queue fills, the kernel drops datagrams silently, so a
	// high-rate recvmmsg consumer needs real headroom here — the stock
	// rmem_default (~200 KiB) is a few hundred datagrams.
	SockRecvBufBytes int
	// DialTimeout bounds DialUDPConfig's name resolution (connecting a
	// UDP socket is otherwise local and synchronous). Zero means no
	// bound. A timeout surfaces wrapped around ErrTimeout.
	DialTimeout time.Duration
}

// udpSockBufDefault is the kernel buffer sizing applied when the config
// leaves it at zero (clamped by the kernel to net.core.{r,w}mem_max).
const udpSockBufDefault = 1 << 20

func (cfg UDPConfig) defaults() UDPConfig {
	if cfg.SockSendBufBytes == 0 {
		cfg.SockSendBufBytes = udpSockBufDefault
	}
	if cfg.SockRecvBufBytes == 0 {
		cfg.SockRecvBufBytes = udpSockBufDefault
	}
	return cfg
}

// udpSock is the one UDP socket core under both the connected shim
// (UDPConn) and the listener demux (UDPPacketConn). It owns the socket, an
// rt.Loop, one reader goroutine and one loop-confined send queue, and
// everything around the build-tagged batch primitives (recv and
// sendBatch) happens here once: fault seams, truncation, the hand-off of
// each datagram at its own size, I/O counting, EINTR and transient-error
// backoff, the lane hand-off, and the Close ordering.
//
// The reader pulls up to udpBatch datagrams per syscall (recvmmsg with a
// source address per slot on Linux, ReadFromUDPAddrPort elsewhere) and
// hands each batch to the loop as one hand-off: on an idle loop it runs
// the delivery itself (rt.Lane.TryRun), on a busy one it queues a copy
// of the batch on the socket's lane. Sends queue as
// (buffer, destination) pairs during a stretch of loop work and flush
// once per loop turn (sendmmsg on Linux, one send per datagram elsewhere).
type udpSock struct {
	loop *rt.Loop
	lane *rt.Lane
	nc   *net.UDPConn
	io   *ioCounters // this socket's I/O stat shard

	// Loop-confined. deliver takes ownership of each received datagram;
	// while it is nil (a listener before OnPacket) datagrams wait in pendQ.
	deliver    func(b *buf.Buffer, from netip.AddrPort)
	pendQ      []udpMsg
	sendQ      []udpMsg
	flushArmed bool
	flushFn    func() // s.flush, bound once so arming it allocates nothing

	// Reader-owned receive slots of udp.MaxDatagram bytes each, set up by
	// the platform's initIO, plus the lengths and sources the receive
	// primitive fills in. While datagrams over half a slot flow (ProtoUDP
	// carries up to udp.MaxDatagram), a pooled arena in rbufs stands in
	// for its slot, so such a datagram is handed off zero-copy.
	rslots [udpBatch][]byte
	rbufs  [udpBatch]*buf.Buffer
	rlen   [udpBatch]int
	rfrom  [udpBatch]netip.AddrPort
	rmsgs  [udpBatch]udpMsg // the batch being handed off
	mm     mmsgState        // platform-specific batching state

	readerDone chan struct{}
	closeOnce  sync.Once
}

// udpMsg is one datagram and its peer: the source of a received one, the
// destination of a queued one (zero on a connected socket).
type udpMsg struct {
	b    *buf.Buffer
	addr netip.AddrPort
}

// open sizes the kernel queues and starts the loop and the reader.
func (s *udpSock) open(nc *net.UDPConn, cfg UDPConfig, deliver func(*buf.Buffer, netip.AddrPort)) {
	cfg = cfg.defaults()
	// Size the kernel queues before any traffic: errors degrade to the
	// kernel default, never to a broken socket.
	if cfg.SockSendBufBytes > 0 {
		nc.SetWriteBuffer(cfg.SockSendBufBytes)
	}
	if cfg.SockRecvBufBytes > 0 {
		nc.SetReadBuffer(cfg.SockRecvBufBytes)
	}
	s.nc, s.io, s.deliver = nc, nextIO(), deliver
	s.readerDone = make(chan struct{})
	s.flushFn = s.flush
	s.initIO()
	s.loop = rt.NewLoop()
	s.lane = s.loop.NewLane()
	go s.readLoop()
}

// LocalAddr returns the socket's local address.
func (s *udpSock) LocalAddr() net.Addr { return s.nc.LocalAddr() }

// Loop exposes the event loop so protocol machinery (uTCP's ARQ) can be
// hosted on it — rt.Loop implements rt.Runtime, so the same state
// machines the simulator drives run here on wall-clock timers.
func (s *udpSock) Loop() *rt.Loop { return s.loop }

// Do runs fn on the event loop (false once closed).
func (s *udpSock) Do(fn func()) bool { return s.loop.Do(fn) }

// Post queues fn on the event loop without waiting (false once closed) —
// the non-blocking door used by cross-connection relays.
func (s *udpSock) Post(fn func()) bool { return s.lane.Post(fn) }

// Close flushes what is queued, shuts the socket, and stops the loop, in
// that order: queued sends (a listener's abort RSTs) leave while the
// socket is open; Loop.Close runs every hand-off already accepted (the
// reader drops what it reads later); the reader exits on the closed
// socket; and once the loop and the reader are gone, whatever that final
// work queued returns to the pool. Called from a callback — which may be
// running on the reader goroutine itself, as an inline hand-off — Close
// does not wait for the reader.
func (s *udpSock) Close() {
	s.closeOnce.Do(func() {
		s.loop.Do(s.flush)
		s.nc.Close()
		s.loop.Close()
		// After Close, Do runs fn only for the loop's own executor.
		if !s.loop.Do(func() {}) {
			<-s.readerDone
		}
		for _, m := range append(s.sendQ, s.pendQ...) {
			m.b.Release()
		}
		s.sendQ, s.pendQ = nil, nil
	})
}

// readLoop is the one reader. Zero-length datagrams are valid UDP and are
// delivered (matching the simulated shim). Every error short of a closed
// socket is transient — ECONNREFUSED surfaced on a connected socket by an
// ICMP port-unreachable when the peer is not up yet, an injected fault —
// so it backs off and keeps reading.
func (s *udpSock) readLoop() {
	defer close(s.readerDone)
	defer s.releaseIO()
	defer s.dropArenas()
	large := false // the last round held a datagram over half a slot
	for {
		capN, ferr, fok := faultRead(udp.MaxDatagram)
		if fok && ferr != nil {
			time.Sleep(faultRetryDelay)
			continue
		}
		// The read seam works per datagram, like the send side's: with a
		// Read hook installed each consultation covers a receive of one
		// datagram, so an injected cap or fault lands on exactly one.
		width := udpBatch
		if h := faultHooks.Load(); h != nil && h.Read != nil {
			width = 1
		}
		if large {
			for i := range s.rbufs[:width] {
				if s.rbufs[i] == nil {
					s.rbufs[i] = buf.Get(udp.MaxDatagram)
				}
			}
		}
		n, err := s.recv(width)
		switch {
		case errors.Is(err, net.ErrClosed):
			return
		case errors.Is(err, syscall.EINTR):
			continue
		case err != nil:
			// Back off so a persistent error cannot spin.
			time.Sleep(time.Millisecond)
			continue
		}
		s.io.udpRecvCalls.Add(1)
		if n == 0 {
			continue
		}
		batch := s.rmsgs[:n]
		large = false
		for i := range batch {
			nlen := s.rlen[i]
			large = large || nlen > udp.MaxDatagram/2
			if fok && capN > 0 && capN < nlen {
				// Injected short read: the datagram is truncated as if
				// received into an undersized buffer.
				nlen = capN
			}
			if b := s.rbufs[i]; b != nil {
				// Zero-copy when it fills over half the arena, else
				// copied at its own size (RightSize).
				batch[i] = udpMsg{b.RightSize(nlen), s.rfrom[i]}
				s.rbufs[i] = nil
				continue
			}
			// Copied out at its own size: the slots are reused every round,
			// and a datagram queued in the loop must not pin 64 KiB.
			batch[i] = udpMsg{buf.From(s.rslots[i][:nlen]), s.rfrom[i]}
		}
		if !large {
			s.dropArenas()
		}
		// An idle loop takes the batch on this goroutine; a busy one gets
		// a copy queued behind its work.
		if !s.lane.TryRun(func() { s.input(batch) }) {
			q := slices.Clone(batch)
			if !s.lane.Post(func() { s.input(q) }) {
				for _, m := range q {
					m.b.Release()
				}
				return
			}
		}
		clear(batch)
	}
}

// slot is where receive slot i lands: its pooled arena while large
// datagrams flow, else the platform's slot.
func (s *udpSock) slot(i int) []byte {
	if b := s.rbufs[i]; b != nil {
		return b.Bytes()
	}
	return s.rslots[i]
}

// dropArenas returns the spare receive arenas to the pool. Reader-owned.
func (s *udpSock) dropArenas() {
	for i, b := range s.rbufs {
		if b != nil {
			b.Release()
			s.rbufs[i] = nil
		}
	}
}

// input hands a received batch to deliver, or queues it until a callback
// registers. Runs on the loop.
func (s *udpSock) input(batch []udpMsg) {
	for _, m := range batch {
		if s.deliver == nil {
			s.pendQ = append(s.pendQ, m)
			continue
		}
		s.deliver(m.b, m.addr)
	}
}

// send queues b for to and arms a flush right behind the loop work
// currently draining, so every datagram a callback burst emits leaves in
// one batch. Runs on the loop; consumes b.
func (s *udpSock) send(b *buf.Buffer, to netip.AddrPort) {
	s.sendQ = append(s.sendQ, udpMsg{b, to})
	if !s.flushArmed {
		s.flushArmed = true
		s.loop.Post(s.flushFn)
	}
}

// flush is the one send path. The fault seam is consulted once per
// datagram, in send order, before the syscall: an injected fault drops
// exactly that datagram, like a kernel send error — UDP is lossy by
// contract — so a Bernoulli loss schedule punches holes inside a batch
// instead of erasing whole flights. Runs on the loop.
func (s *udpSock) flush() {
	s.flushArmed = false
	q := s.sendQ
	kept := q[:0]
	for _, m := range q {
		if _, ferr, ok := faultWrite(m.b.Len()); ok && ferr != nil {
			m.b.Release()
			continue
		}
		kept = append(kept, m)
	}
	for rest := kept; len(rest) > 0; {
		n, err := s.sendBatch(rest)
		switch {
		case errors.Is(err, net.ErrClosed):
			n = len(rest)
		case errors.Is(err, syscall.EINTR):
			continue
		case err != nil || n == 0:
			n = 1 // per-datagram failure: drop it, keep the rest
		default:
			s.io.udpSendCalls.Add(1)
		}
		rest = rest[n:]
	}
	for _, m := range kept {
		m.b.Release()
	}
	clear(q)
	s.sendQ = q[:0]
}

// UDPConn is the trivial Minion shim (internal/udp) bound to a real
// net.UDPConn instead of an emulated link: the deployable "UDP works
// here" substrate (paper §3.2). Like Conn it owns an rt.Loop so the
// shim's state is confined to the loop's executor; datagrams enter and
// leave in pooled buffers through the batched socket core.
type UDPConn struct {
	udpSock
	u      *udp.Conn
	remote netip.AddrPort // Send's destination; zero on a connected socket

	tryBytes atomic.Int64 // TrySend payload accepted but not yet sent
}

// NewUDPConn wraps an open socket. remote, when non-nil, is the
// destination for Send on an unconnected socket (nc from net.ListenUDP);
// a nil remote requires a connected socket (nc from net.DialUDP).
func NewUDPConn(nc *net.UDPConn, remote net.Addr) *UDPConn {
	return NewUDPConnConfig(nc, remote, UDPConfig{})
}

// NewUDPConnConfig is NewUDPConn with socket tuning.
func NewUDPConnConfig(nc *net.UDPConn, remote net.Addr, cfg UDPConfig) *UDPConn {
	c := &UDPConn{u: udp.New()}
	if ua, ok := remote.(*net.UDPAddr); ok {
		// Unmapped, as WriteToUDPAddrPort needs on an IPv4 socket; an
		// IPv6 socket maps it back.
		ap := ua.AddrPort()
		c.remote = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	c.u.SetOutput(func(b *buf.Buffer, wireSize int) { c.send(b, c.remote) })
	c.open(nc, cfg, func(b *buf.Buffer, _ netip.AddrPort) { c.u.InputBuf(b) })
	return c
}

// DialUDP opens a connected UDP socket to addr ("udp", "udp4", "udp6").
func DialUDP(network, addr string) (*UDPConn, error) {
	return DialUDPConfig(network, addr, UDPConfig{})
}

// DialUDPConfig is DialUDP with socket tuning.
func DialUDPConfig(network, addr string, cfg UDPConfig) (*UDPConn, error) {
	d := net.Dialer{Timeout: cfg.DialTimeout}
	nc, err := d.Dial(network, addr)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			err = fmt.Errorf("%w: dial %s %s", ErrTimeout, network, addr)
		}
		return nil, err
	}
	unc, ok := nc.(*net.UDPConn)
	if !ok {
		nc.Close()
		return nil, net.UnknownNetworkError(network)
	}
	return NewUDPConnConfig(unc, nil, cfg), nil
}

// Shim exposes the internal UDP endpoint for layers that ride the
// datagram path directly (uTCP binds its segment codec to it). All
// access must happen on the event loop (via Do/Post).
func (c *UDPConn) Shim() *udp.Conn { return c.u }

// Send transmits one datagram (callable from any goroutine).
func (c *UDPConn) Send(msg []byte) error {
	var err error
	if !c.loop.Do(func() { err = c.u.Send(msg) }) {
		return net.ErrClosed
	}
	return err
}

// udpTryBudget bounds payload bytes accepted by TrySend but not yet
// handed to the shim — the relay-pattern backstop against a socket whose
// buffer stopped draining.
const udpTryBudget = 256 * 1024

// TrySend queues one datagram for transmission without waiting on the
// event loop — safe to call from another connection's callback, where the
// marshalled Send could deadlock two loops against each other. The bytes
// are copied before return. Backpressure (too many accepted-but-unsent
// bytes) surfaces as tcp.ErrWouldBlock; net.ErrClosed means the loop has
// shut down. Queued datagrams ride the same batched send path as Send.
func (c *UDPConn) TrySend(msg []byte) error { return c.TrySendResult(msg, nil) }

// TrySendResult is TrySend with per-datagram completion reporting: done
// (when non-nil) runs on the event loop once the accepted datagram's fate
// is known — nil when it was handed to the send path (UDP's contract ends
// there; the network may still lose it), or the shim's error when it was
// refused. A TrySendResult that itself returns an error never accepted
// the datagram and never invokes done.
func (c *UDPConn) TrySendResult(msg []byte, done func(error)) error {
	n := int64(len(msg)) + 1 // +1 meters zero-length datagrams too
	if c.tryBytes.Add(n) > udpTryBudget {
		c.tryBytes.Add(-n)
		return tcp.ErrWouldBlock
	}
	b := buf.From(msg)
	if !c.lane.Post(func() {
		err := c.u.Send(b.Bytes())
		b.Release()
		c.tryBytes.Add(-n)
		if done != nil {
			done(err)
		}
	}) {
		c.tryBytes.Add(-n)
		b.Release()
		return net.ErrClosed
	}
	return nil
}

// Recv pops a queued received datagram.
func (c *UDPConn) Recv() (msg []byte, ok bool) {
	c.loop.Do(func() { msg, ok = c.u.Recv() })
	return
}

// OnMessage registers the delivery callback, which runs on the event
// loop; msg is valid only until it returns. Datagrams that arrived
// before registration (real-socket bytes flow the moment the socket
// opens) are flushed through the new callback, atomically with
// registration, in arrival order.
func (c *UDPConn) OnMessage(fn func(msg []byte)) {
	c.loop.Do(func() {
		c.u.OnMessage(fn)
		if fn == nil {
			return
		}
		for {
			m, ok := c.u.Recv()
			if !ok {
				return
			}
			fn(m)
		}
	})
}

// Stats returns a copy of the shim counters.
func (c *UDPConn) Stats() (st udp.Stats) {
	c.loop.Do(func() { st = c.u.Stats() })
	return
}
