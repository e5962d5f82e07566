package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"minion/internal/buf"
	"minion/internal/rt"
	"minion/internal/tcp"
)

// Config parameterizes a wire connection. The zero value is usable.
type Config struct {
	// SendBufBytes bounds bytes queued for the writer but not yet written
	// to the socket (default 256 KiB). WriteMsgBuf returns ErrWouldBlock
	// when a message does not fit.
	SendBufBytes int
	// RecvBufBytes bounds bytes delivered into the loop but not yet
	// consumed by Read; the reader goroutine stops pulling from the socket
	// when it is reached, so kernel flow control backpressures the peer
	// (default 256 KiB).
	RecvBufBytes int
	// WriteLowWater is the OnWritable threshold: after a WriteMsgBuf
	// rejection, the callback fires once queued bytes drain to this level
	// (default SendBufBytes/2).
	WriteLowWater int
	// NoDelay disables Nagle on TCP sockets (recommended for datagram
	// traffic, like the paper's experiments).
	NoDelay bool
	// SockSendBufBytes, when positive, sets the kernel socket send buffer
	// (SO_SNDBUF). Zero leaves the kernel's autotuning in place — the
	// right default on Linux, where tcp_wmem adapts per connection and a
	// fixed SO_SNDBUF disables that adaptation.
	SockSendBufBytes int
	// SockRecvBufBytes, when positive, sets the kernel socket receive
	// buffer (SO_RCVBUF). Zero leaves autotuning in place (see
	// SockSendBufBytes).
	SockRecvBufBytes int
	// Backlog is the listen(2) backlog for wire listeners (default 4096,
	// clamped by the kernel's somaxconn). At c10k+ accept rates the
	// stock net.Listen backlog drops SYNs during accept bursts.
	Backlog int
	// ReadIdleTimeout, when positive, aborts the connection with
	// ErrTimeout after that long with no bytes arriving from the peer.
	// Driven by the loop's timer wheel (no per-connection goroutine or
	// timer churn); detection granularity is the timeout itself, so a
	// dead peer is evicted between T and ~2T after its last byte.
	ReadIdleTimeout time.Duration
	// WriteStallTimeout, when positive, bounds how long queued send bytes
	// may sit with no kernel progress before StallPolicy applies — the
	// slow-client guard: a peer that stopped reading is pinning pooled
	// buffers in this connection's send queue.
	WriteStallTimeout time.Duration
	// StallPolicy selects eviction (default) or shed-then-evict when
	// WriteStallTimeout expires. See the StallPolicy constants.
	StallPolicy StallPolicy
	// KeepAlive configures TCP keepalive probing: positive enables it
	// with that period, negative disables it, zero keeps the Go runtime
	// default (enabled, 15s). Keepalive detects peers that vanished
	// without a FIN even on connections with no read deadline.
	KeepAlive time.Duration
	// DialTimeout bounds the TCP connect in Dial (default: no bound). A
	// timeout surfaces wrapped around ErrTimeout.
	DialTimeout time.Duration
	// Group, when non-nil, runs the connection on one of the group's
	// event loops instead of a dedicated loop — see the package comment
	// for the goroutine economics.
	Group *Group
	// Governor, when non-nil, meters this connection's queued send and
	// receive bytes in the pool-wide resource governor (buf.Governor).
	// Listeners carrying the same config pause accepting while the
	// governor is over its high watermark — admission control for the
	// overload the per-connection budgets cannot see: many connections,
	// each individually within bounds, collectively ballooning the pool.
	Governor *buf.Governor
}

func (cfg Config) defaults() Config {
	if cfg.SendBufBytes == 0 {
		cfg.SendBufBytes = 256 * 1024
	}
	if cfg.RecvBufBytes == 0 {
		cfg.RecvBufBytes = 256 * 1024
	}
	if cfg.WriteLowWater == 0 {
		cfg.WriteLowWater = cfg.SendBufBytes / 2
	}
	if cfg.Backlog == 0 {
		cfg.Backlog = 4096
	}
	return cfg
}

// applySockOpts sizes the kernel socket buffers per cfg. Errors are
// ignored: a refused SO_SNDBUF/SO_RCVBUF (or a non-TCP nc in tests)
// degrades to the kernel default, never to a broken connection.
func applySockOpts(nc net.Conn, cfg Config) {
	tcpc, ok := nc.(*net.TCPConn)
	if !ok {
		return
	}
	if cfg.NoDelay {
		tcpc.SetNoDelay(true)
	}
	if cfg.SockSendBufBytes > 0 {
		tcpc.SetWriteBuffer(cfg.SockSendBufBytes)
	}
	if cfg.SockRecvBufBytes > 0 {
		tcpc.SetReadBuffer(cfg.SockRecvBufBytes)
	}
	switch {
	case cfg.KeepAlive > 0:
		tcpc.SetKeepAlive(true)
		tcpc.SetKeepAlivePeriod(cfg.KeepAlive)
	case cfg.KeepAlive < 0:
		tcpc.SetKeepAlive(false)
	}
}

// closeLinger bounds how long Close waits for the peer to drain and close
// its half before the socket is torn down hard. An atomic only so
// lifecycle tests can shorten the bound while background teardowns read
// it; production code treats it as a constant.
var closeLinger atomic.Int64

func init() { closeLinger.Store(int64(5 * time.Second)) }

// ErrTooLarge is returned by WriteMsgBuf for a message that exceeds the
// whole send budget — it can never be queued, so retrying is futile
// (contrast ErrWouldBlock, which clears as the queue drains).
var ErrTooLarge = errors.New("wire: message larger than send buffer")

// Conn is a real TCP socket exposed as a tcp.Stream. All Stream methods
// must be called on the connection's event loop — from inside a protocol
// callback, or marshalled in with Do or Post.
//
// One datapath serves every connection: a send queue (writer.go) and a
// receive path (reader.go). Only the syscall driver under them differs
// — a blocking reader/writer goroutine pair, or non-blocking calls on the
// loop's executor when the loop has a poller (poller.go).
type Conn struct {
	loop    *rt.Loop
	lane    *rt.Lane // the connection's FIFO lane into its loop
	nc      net.Conn
	cfg     Config
	io      *ioCounters // this connection's I/O stat shard
	ownLoop bool        // dedicated mode: the loop is ours
	release func()      // group detach; nil in dedicated mode

	// Poll driver (nil pl for the goroutine pair): the loop's poller
	// drives this connection's I/O through three coalescing signals. fd
	// is valid until cleanup.
	pl      *poller
	fd      int
	pollTok int32
	rSig    *rt.Signal // readability edge or resumed budget -> pollRead
	wSig    *rt.Signal // WriteMsgBuf/Close service -> pollWrite
	woSig   *rt.Signal // EPOLLOUT edge -> pollWritable
	pio     pollIO     // platform writev scratch
	wParked bool       // writev hit EAGAIN; only EPOLLOUT may retry (loop-confined)
	// rHup (set by the poller goroutine, sticky) records a hangup/error
	// edge: an already-arrived FIN never re-edges, so the short-read
	// drain shortcut must not be taken once it is set.
	rHup atomic.Bool

	// Loop-confined state.
	dead       bool // cleanup ran: no further delivery, no syscall on fd
	onReadable func()
	recvQ      []*buf.Buffer
	rerr       error       // terminal read status (io.EOF on clean peer close)
	onStall    func() int  // StallShed hook (lifecycle.go)
	onDrain    func()      // Group.Shutdown graceful-flush hook
	onError    func(error) // terminal-error hook; fires exactly once
	onEOF      func()      // graceful peer-close hook; fires at most once
	errCause   error       // latched terminal error, once fired

	// Lifecycle clocks and latches (lifecycle.go).
	lastRead  atomic.Int64          // loop-time nanos of the last peer byte
	watchStop atomic.Bool           // watchdog must not re-arm
	aborted   atomic.Bool           // Abort ran: Close skips the linger drain
	failCause atomic.Pointer[error] // overrides endRead's error mapping

	// Receive budget (read driver <-> loop; see reader.go).
	rmu      sync.Mutex
	rcond    *sync.Cond // the reader goroutine's budget wait
	rBudget  int        // bytes read for delivery, not yet consumed by Read
	rStalled bool       // reading stopped on a full budget; credit resumes it
	rclosed  bool       // teardown: the reader goroutine must stop

	// Pad between the read side (read driver + loop) and the write side
	// (producer goroutines + the write driver): the two sides are driven
	// by different goroutines at full rate, and sharing a cache line
	// between rmu/rBudget and wmu/wqBytes makes every send invalidate
	// the receive path's line and vice versa.
	_ [64]byte

	// Send queue (any goroutine -> the write driver; see writer.go).
	wmu        sync.Mutex
	wcond      *sync.Cond // the writer goroutine's wakeup
	wq         []*buf.Buffer
	wqBytes    int // queued plus in-flight bytes not yet taken by the kernel
	werr       error
	wclosed    bool
	onWritable func()
	wNotify    bool          // a rejected WriteMsgBuf armed OnWritable
	wStall     time.Duration // write-stall clock, loop time (0 = off)

	// In-flight vectored write; owned by the write driver, no lock.
	pend      net.Buffers
	pendOwned []*buf.Buffer
	wvec      net.Buffers // one write's view of pend (see stageWrite)

	rdone      sync.Once
	wdone      sync.Once
	writerDone chan struct{} // send side flushed (or dead)
	readerDone chan struct{} // the read driver delivers nothing more
	closeOnce  sync.Once
}

// Conn implements the framing layers' transport contract.
var _ tcp.Stream = (*Conn)(nil)

// NewConn wraps an established net.Conn. With cfg.Group it attaches to
// the least-loaded group loop and, if that loop has a poller, registers
// the socket with it and starts no goroutine. Otherwise it starts a
// reader and a writer goroutine (and, without a Group, a loop of its
// own). The caller must Close the returned Conn to release them.
func NewConn(nc net.Conn, cfg Config) *Conn {
	return newConn(nc, cfg, -1)
}

// newConn is NewConn with loop placement control: shard >= 0 pins the
// connection to that group loop — the sharded-accept path, where the
// kernel already routed the connection to the loop that owns the
// accepting socket — while shard < 0 uses least-loaded assignment.
func newConn(nc net.Conn, cfg Config, shard int) *Conn {
	cfg = cfg.defaults()
	applySockOpts(nc, cfg)
	c := &Conn{
		nc:         nc,
		cfg:        cfg,
		io:         nextIO(),
		writerDone: make(chan struct{}),
		readerDone: make(chan struct{}),
	}
	var pl *poller
	if cfg.Group != nil {
		if loop, p, release, ok := cfg.Group.assign(shard); ok {
			c.loop, c.release = loop, release
			pl = p
		}
	}
	if c.loop == nil {
		// Dedicated mode — also the fallback when the group closed
		// between Accept and attach.
		c.loop = rt.NewLoop()
		c.ownLoop = true
	}
	c.lane = c.loop.NewLane()
	c.rcond = sync.NewCond(&c.rmu)
	c.wcond = sync.NewCond(&c.wmu)
	c.lastRead.Store(int64(c.loop.Now()))
	if g := cfg.Group; g != nil && c.release != nil {
		g.track(c)
		detach := c.release
		c.release = func() {
			g.untrack(c)
			detach()
		}
	}
	// The lane and conds must exist before registration: the initial
	// readiness edges can fire the moment the fd enters the epoll set.
	if pl == nil || !c.pollInit(pl) {
		go c.readLoop()
		go c.writeLoop()
	}
	c.armWatchdog()
	return c
}

// Dial opens a TCP connection to addr and wraps it. network is "tcp",
// "tcp4" or "tcp6". Config.DialTimeout bounds the connect; on expiry the
// returned error wraps ErrTimeout.
func Dial(network, addr string, cfg Config) (*Conn, error) {
	d := net.Dialer{Timeout: cfg.DialTimeout}
	nc, err := d.Dial(network, addr)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			err = fmt.Errorf("%w: dial %s %s", ErrTimeout, network, addr)
		}
		return nil, err
	}
	return NewConn(nc, cfg), nil
}

// Loop returns the connection's event loop (shared with other
// connections in group mode).
func (c *Conn) Loop() *rt.Loop { return c.loop }

// Do runs fn on the connection's event loop and waits for it — the door
// through which application goroutines reach the serially-executed
// protocol state. It reports false (fn not run) once the connection's
// loop has shut down.
func (c *Conn) Do(fn func()) bool { return c.loop.Do(fn) }

// Post queues fn on the connection's FIFO lane into the event loop and
// returns without waiting — the non-blocking door, safe to call from
// another connection's callback (where Do could deadlock two loops
// against each other). Posts from any one goroutine run in order relative
// to each other and to the connection's deliveries. It reports false once
// the loop has shut down (fn will never run).
func (c *Conn) Post(fn func()) bool { return c.lane.Post(fn) }

// LocalAddr returns the socket's local address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// RemoteAddr returns the socket's remote address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Unordered implements tcp.Stream: kernel TCP delivers in order only.
func (c *Conn) Unordered() bool { return false }

// SegmentCapacity implements tcp.Stream: kernel TCP segments the stream
// however it likes, so there is no boundary-preservation guarantee.
func (c *Conn) SegmentCapacity() int { return 0 }

// OnReadable implements tcp.Stream. Must be called on the loop. If data
// is already queued the callback is scheduled immediately, so a framing
// layer attached after traffic started does not stall.
func (c *Conn) OnReadable(fn func()) {
	c.onReadable = fn
	if fn != nil && (len(c.recvQ) > 0 || c.rerr != nil) {
		c.lane.Post(fn)
	}
}

// Read implements tcp.Stream (loop only): it drains delivered chunks into
// p, returning tcp.ErrWouldBlock when nothing is pending and io.EOF after
// the peer closed and all data was consumed.
func (c *Conn) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) && len(c.recvQ) > 0 {
		b := c.recvQ[0]
		m := copy(p[n:], b.Bytes())
		n += m
		if m == b.Len() {
			b.Release()
			c.recvQ[0] = nil
			c.recvQ = c.recvQ[1:]
		} else {
			rest := b.Slice(m, b.Len())
			b.Release()
			c.recvQ[0] = rest
		}
	}
	if n > 0 {
		c.govCharge(-n)
		c.creditRead(n)
		return n, nil
	}
	if c.rerr != nil {
		return 0, c.rerr
	}
	return 0, tcp.ErrWouldBlock
}

// govCharge records d bytes (negative to release) in the configured
// resource governor. The charge discipline mirrors the existing byte
// accounting exactly — send-side calls happen under wmu alongside
// wqBytes changes, receive-side calls are loop-confined alongside recvQ
// changes — so the governor ledger balances to zero when the queues do.
func (c *Conn) govCharge(d int) {
	if c.cfg.Governor != nil && d != 0 {
		c.cfg.Governor.Adjust(int64(d))
	}
}

// ReadUnordered implements tcp.Stream: never available on kernel TCP.
func (c *Conn) ReadUnordered() (tcp.UnorderedData, error) {
	return tcp.UnorderedData{}, tcp.ErrNotUnordered
}

// Write implements tcp.Stream: all-or-nothing (a partial record write
// would corrupt the framing stream). It returns ErrWouldBlock when p does
// not fit in the send queue.
func (c *Conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	return c.WriteMsgBuf(buf.From(p), tcp.WriteOptions{})
}

// WriteMsgBuf implements tcp.Stream: it takes ownership of b and queues it
// for the writer, whole. Kernel TCP has no priority insertion, so the
// options' tag and squash are ignored (FIFO), exactly like an
// UnorderedSend-less tcp.Conn. Safe from any goroutine; it never blocks
// (backpressure surfaces as ErrWouldBlock, which also arms OnWritable).
func (c *Conn) WriteMsgBuf(b *buf.Buffer, opt tcp.WriteOptions) (int, error) {
	n := b.Len()
	if n == 0 {
		b.Release()
		return 0, nil
	}
	if n > c.cfg.SendBufBytes {
		// Never fits: a retryable ErrWouldBlock here would have the
		// OnWritable edge re-offering the same message forever (a
		// livelock on the event loop); fail it terminally instead.
		b.Release()
		return 0, ErrTooLarge
	}
	c.wmu.Lock()
	if c.wclosed || c.werr != nil {
		err := c.werr
		c.wmu.Unlock()
		b.Release()
		if err == nil {
			err = tcp.ErrClosed
		}
		return 0, err
	}
	if c.wqBytes+n > c.cfg.SendBufBytes {
		// Arm the OnWritable edge. No immediate fire is needed: a
		// rejection implies bytes are queued (n alone would fit), so a
		// writer service is pending and runs the low-water check.
		c.wNotify = true
		c.wmu.Unlock()
		b.Release()
		return 0, tcp.ErrWouldBlock
	}
	c.wq = append(c.wq, b)
	c.wqBytes += n
	c.govCharge(n)
	c.noteWriteProgressLocked(true, false)
	if c.wqBytes >= c.cfg.WriteLowWater {
		// Crossing the low-water mark arms the next OnWritable edge, so a
		// sender that gates on SendBufAvailable (rather than a rejected
		// write) still gets its drain notification.
		c.wNotify = true
	}
	c.wmu.Unlock()
	c.kickWriter()
	return n, nil
}

// OnWritable registers fn, fired on the connection's event loop each
// time the queued send bytes drain down to the low-water mark
// (Config.WriteLowWater) after having risen above it or after a
// WriteMsgBuf rejection (ErrWouldBlock) — the edge a backpressured
// sender waits on. One registration persists across any number of
// edges; fn == nil unregisters. An edge that came due before fn was
// registered (the rejection armed it, then the queue drained) fires at
// once, so a sender registering right after its first ErrWouldBlock
// cannot miss it. Safe from any goroutine.
func (c *Conn) OnWritable(fn func()) {
	c.wmu.Lock()
	c.onWritable = fn
	c.notifyWritableLocked()
	c.wmu.Unlock()
}

// SendBufAvailable implements tcp.Stream.
func (c *Conn) SendBufAvailable() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n := c.cfg.SendBufBytes - c.wqBytes
	if n < 0 {
		return 0
	}
	return n
}

// Close implements tcp.Stream: a graceful teardown. Queued writes drain
// and the send side half-closes, the receive side keeps delivering until
// the peer closes or a linger timeout passes, then the socket shuts down
// (and, in dedicated mode, the event loop with it; a group loop lives on
// for its other connections). Close returns immediately; it is idempotent
// and safe from any goroutine, including loop callbacks.
func (c *Conn) Close() {
	c.closeOnce.Do(func() {
		c.watchStop.Store(true) // the linger bound owns teardown now
		c.wmu.Lock()
		c.wclosed = true
		c.wmu.Unlock()
		c.kickWriter() // the writer notices the flush point even with nothing queued
		go func() {
			// Bound the drain too: a peer that stopped reading leaves
			// queued data that will never flush, and Close must not wait
			// on it forever. At the linger the queue fails (failWrites);
			// the write driver finishes releasing its buffers a beat
			// later.
			linger := time.Duration(closeLinger.Load())
			if c.aborted.Load() {
				// Abort already failed both directions: don't wait the
				// graceful linger for a drain that cannot happen.
				linger = 10 * time.Millisecond
			}
			select {
			case <-c.writerDone:
			case <-time.After(linger):
				if !c.loop.Do(c.expireWrites) {
					c.expireWrites()
				}
				select {
				case <-c.writerDone:
				case <-time.After(time.Second):
				}
			}
			if tcpc, ok := c.nc.(*net.TCPConn); ok {
				tcpc.CloseWrite()
			}
			select {
			case <-c.readerDone:
			case <-time.After(linger):
			}
			c.teardown()
		}()
	})
}

// expireWrites fails a send queue that outlived Close's linger.
func (c *Conn) expireWrites() { c.failWrites(tcp.ErrClosed) }

// teardown force-closes the socket and runs cleanup as the connection's
// last loop step. The reader goroutine is kicked out of the socket and
// waited for first, so cleanup runs behind its last delivery; a polled
// connection unregisters in cleanup, before the socket closes, so no
// syscall can race the kernel recycling the fd. Dedicated mode stops
// the event loop; a group connection detaches from its group.
func (c *Conn) teardown() {
	if c.pl == nil {
		c.nc.Close()
		c.rmu.Lock()
		c.rclosed = true
		c.rmu.Unlock()
		c.rcond.Broadcast()
		<-c.readerDone
	}
	if c.ownLoop {
		c.loop.Close()
		// The loop is stopped and the reader gone: the connection's
		// state is ours alone now. (Chunks inside closures the loop
		// never executed are unreachable and fall to the garbage
		// collector — the safe direction of the buffer discipline.)
		c.cleanup()
		return
	}
	// Do, not Post: a racing group shutdown can close the loop after the
	// post is queued but before it runs, and a dropped cleanup leaks
	// every chunk still in recvQ. Do either runs it on the (live) loop
	// or reports the loop gone — at which point the event goroutine is
	// too, and cleaning up inline is safe.
	if !c.loop.Do(c.cleanup) {
		c.cleanup()
	}
	c.nc.Close()
	if c.release != nil {
		c.release()
	}
}

// cleanup is the connection's last step on its loop (or inline once the
// loop is gone): the poll driver stops using the fd, the write side
// fails, undelivered receive buffers return to the pool, and the
// terminal state is reported before the hooks are dropped.
func (c *Conn) cleanup() {
	if c.dead {
		return
	}
	c.dead = true
	c.watchStop.Store(true)
	if c.pl != nil {
		c.pl.unregister(c.pollTok, c.fd)
	}
	c.failWrites(tcp.ErrClosed)
	c.rdone.Do(c.closeReader)
	for _, b := range c.recvQ {
		c.govCharge(-b.Len())
		b.Release()
	}
	c.recvQ = nil
	if c.rerr == nil {
		c.rerr = tcp.ErrClosed
	}
	// Terminal-state backstop: any teardown funnels through here, so a
	// connection that died without an explicit abort still reports its
	// fate exactly once before the hooks are dropped.
	c.fireError(c.rerr)
	c.onReadable = nil
	c.onError = nil
	c.onEOF = nil
	c.onStall = nil
	c.onDrain = nil
}
