package tcp

import (
	"errors"
	"math"
	"time"

	"minion/internal/buf"
	"minion/internal/rt"
)

// State is the connection state (simplified TCP state machine; TIME_WAIT
// collapses to Closed since the simulator never reuses connections).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateClosing
)

var stateNames = [...]string{
	"Closed", "Listen", "SynSent", "SynReceived", "Established",
	"FinWait1", "FinWait2", "CloseWait", "LastAck", "Closing",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "Invalid"
}

// Errors returned by the connection API.
var (
	ErrClosed       = errors.New("tcp: connection closed")
	ErrReset        = errors.New("tcp: connection reset")
	ErrNotUnordered = errors.New("tcp: SO_UNORDERED not enabled")
	ErrWouldBlock   = errors.New("tcp: operation would block")
	ErrTimeout      = errors.New("tcp: connection timed out")
)

// TagDefault is the priority tag assigned to plain Write data: numerically
// the largest tag, i.e. the lowest priority. Smaller tags are higher
// priority (paper §4.2: new data is inserted before lower-priority data).
const TagDefault = uint32(1<<31 - 1)

// Config parameterizes a Conn. The zero value is usable; Defaults fills in
// unset fields.
type Config struct {
	// MSS is the maximum segment payload size (default DefaultMSS).
	MSS int
	// SendBufBytes bounds the unsent application data queued in the
	// connection (default 256 KiB).
	SendBufBytes int
	// RecvBufBytes bounds the receive buffer and therefore the advertised
	// window (default 256 KiB).
	RecvBufBytes int
	// InitialCwnd is the initial congestion window in segments (default 3,
	// matching Linux 2.6.34).
	InitialCwnd int
	// NoDelay disables Nagle's algorithm (the paper's experiments disable
	// Nagle; default false = Nagle on, like a stock socket).
	NoDelay bool
	// DelayedAck enables the receiver's delayed-ACK behaviour
	// (ack every second full segment or after DelAckTimeout).
	DelayedAck bool
	// DelAckTimeout is the delayed-ACK timer (default 40ms, Linux's
	// quick-ack minimum).
	DelAckTimeout time.Duration
	// MinRTO and MaxRTO bound the retransmission timeout
	// (defaults 200ms and 120s, matching Linux).
	MinRTO, MaxRTO time.Duration
	// ByteCountedCwnd switches congestion accounting from packets
	// (Linux's skbuff counting, the default, which produces the paper's
	// Figure 5 artifact) to bytes.
	ByteCountedCwnd bool

	// Unordered enables the SO_UNORDERED receive path (paper §4.1).
	Unordered bool
	// UnorderedSend enables the SO_UNORDEREDSEND send path (paper §4.2):
	// WriteMsg boundaries are preserved in the segmenter and priority
	// insertion is honored.
	UnorderedSend bool
	// CoalesceWrites applies the paper's §8.1 partial fix: whole small
	// writes are packed together into one segment when they fit, restoring
	// throughput when the MSS is a multiple of the message size.
	CoalesceWrites bool
	// DisableCC turns congestion control off (the paper notes uTCP can
	// disable congestion control for unreliable-style service; used by
	// ablation benches only).
	DisableCC bool
	// RACK selects RACK-TLP loss recovery (RFC 8985, rack.go): a segment
	// is lost once one sent after it has been delivered, retransmissions
	// included; a tail loss probe follows 2·SRTT of silence; and the RTO
	// is armed per RFC 6298 §5.1/§5.3. Off (the default), the sender is
	// Reno with RFC 6675 SACK loss marking and an RTO restarted on every
	// transmission — the Linux 2.6.34 behaviour the simulator's paper
	// figures are calibrated against. uTCP over UDP turns it on.
	RACK bool
}

// Defaults returns cfg with zero fields replaced by defaults.
func (cfg Config) Defaults() Config {
	if cfg.MSS == 0 {
		cfg.MSS = DefaultMSS
	}
	if cfg.SendBufBytes == 0 {
		cfg.SendBufBytes = 256 * 1024
	}
	if cfg.RecvBufBytes == 0 {
		cfg.RecvBufBytes = 256 * 1024
	}
	if cfg.InitialCwnd == 0 {
		cfg.InitialCwnd = 3
	}
	if cfg.DelAckTimeout == 0 {
		cfg.DelAckTimeout = 40 * time.Millisecond
	}
	if cfg.MinRTO == 0 {
		cfg.MinRTO = 200 * time.Millisecond
	}
	if cfg.MaxRTO == 0 {
		cfg.MaxRTO = 120 * time.Second
	}
	return cfg
}

// Stats exposes counters for experiments.
type Stats struct {
	SegsSent        int
	SegsRetrans     int
	SegsReceived    int
	BytesSent       int64 // payload bytes, first transmissions only
	BytesRetrans    int64
	BytesReceived   int64 // payload bytes accepted in-window
	AcksSent        int
	DupAcksReceived int
	FastRecoveries  int
	Timeouts        int
	DeliveredOOO    int // uTCP out-of-order deliveries to the app
	// RACK mode only: segments RACK's time rule marked lost (first
	// transmissions and retransmissions alike), the retransmissions among
	// them, and tail loss probes sent.
	RACKLosses      int
	RACKLostRetrans int
	TLPs            int
}

// UnorderedData is one uTCP delivery: the equivalent of the 5-byte metadata
// header (1 flag byte + 4-byte offset) the prototype prepends to read()
// data (paper §7).
type UnorderedData struct {
	// Offset is the logical offset of Data[0] in the sender's byte stream
	// (TCP sequence number minus ISN, as in the paper).
	Offset uint64
	// Data is the delivered stream fragment. It may be a zero-copy view of
	// a pooled buffer: consumers that are done with it should call Release
	// so the arena can be recycled (not calling Release is safe — the
	// bytes are then reclaimed by the garbage collector instead).
	Data []byte
	// InOrder is the flag bit: true when delivered from the in-order path.
	InOrder bool

	buf *buf.Buffer // reference backing Data when it is a pooled view
}

// Release drops the delivery's reference to its pooled backing buffer, if
// any. Data must not be used afterwards.
func (d *UnorderedData) Release() {
	if d.buf != nil {
		d.buf.Release()
		d.buf = nil
	}
}

// WriteOptions control a WriteMsg call on an UnorderedSend connection:
// the uTCP 5-byte send header (1 flag byte + 4-byte tag, paper §7).
type WriteOptions struct {
	// Tag is the priority: lower values are higher priority and may be
	// inserted ahead of queued, untransmitted, lower-priority writes.
	Tag uint32
	// Squash discards any queued, untransmitted write with exactly the
	// same tag before inserting this one (the paper's §4.2 refinement).
	Squash bool
}

// Conn is one endpoint of a TCP connection.
type Conn struct {
	rtm   rt.Runtime
	cfg   Config
	out   func(*Segment)
	state State
	err   error

	// Sequence state. iss/irs are the initial send/receive sequence
	// numbers. Data stream offsets are seq-(isn+1).
	iss, irs       uint64
	sndUna, sndNxt uint64
	rcvNxt         uint64
	sndWnd         int // peer's advertised window

	sender
	receiver

	finQueued bool // app called Close; FIN goes out after the send queue drains
	finSent   bool
	finSeq    uint64

	onReadable     func()
	onWritable     func()
	onClose        func(error)
	onState        func(State)
	readableQueued bool
	writableQueued bool

	// Cached event closures: these fire once per segment or oftener, so
	// they are built a single time instead of allocating per Schedule call.
	readableFn func()
	writableFn func()
	rtoFn      func()

	stats Stats
}

// New creates a connection on the runtime with output function out, which
// the connection calls for every segment it emits. Input segments are
// delivered via Input.
func New(r rt.Runtime, cfg Config, out func(*Segment)) *Conn {
	c := &Conn{rtm: r, cfg: cfg.Defaults(), out: out, state: StateClosed}
	c.readableFn = func() {
		c.readableQueued = false
		if c.onReadable != nil {
			c.onReadable()
		}
	}
	c.writableFn = func() {
		c.writableQueued = false
		if c.onWritable != nil && c.SendBufAvailable() > 0 {
			c.onWritable()
		}
	}
	c.rtoFn = c.onRTO
	if c.cfg.RACK {
		c.rtoFn = c.onRACKTimer
	}
	c.initSender()
	c.initReceiver()
	return c
}

// SetOutput replaces the segment output function (used when wiring pairs).
func (c *Conn) SetOutput(out func(*Segment)) { c.out = out }

// OnReadable registers a callback invoked whenever new data becomes
// available to Read/ReadUnordered. If data or the peer's FIN is already
// queued the callback is scheduled at once, so a reader attached after
// traffic arrived does not stall.
func (c *Conn) OnReadable(fn func()) {
	c.onReadable = fn
	if c.inQ.Len() > 0 || c.uQ.Len() > 0 || c.peerFinReceived {
		c.notifyReadable()
	}
}

// OnWritable registers a callback invoked when send-buffer space becomes
// available after Write/WriteMsg returned short or ErrWouldBlock.
func (c *Conn) OnWritable(fn func()) { c.onWritable = fn }

// OnClose registers a callback invoked once when the connection fully
// closes; err is nil for a graceful close.
func (c *Conn) OnClose(fn func(error)) { c.onClose = fn }

// OnStateChange registers a callback for state transitions.
func (c *Conn) OnStateChange(fn func(State)) { c.onState = fn }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Err returns the terminal error, if any.
func (c *Conn) Err() error { return c.err }

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// Config returns the effective (defaulted) configuration.
func (c *Conn) Config() Config { return c.cfg }

func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	c.state = s
	if c.onState != nil {
		c.onState(s)
	}
}

// Connect starts the active open (sends SYN).
func (c *Conn) Connect() {
	if c.state != StateClosed {
		return
	}
	c.iss = uint64(c.rtm.Rand().Int63n(1 << 30))
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.setState(StateSynSent)
	c.sendSYN(false)
}

// Listen puts the connection in passive-open mode.
func (c *Conn) Listen() {
	if c.state != StateClosed {
		return
	}
	c.setState(StateListen)
}

// Close initiates a graceful close: queued data is still delivered, then a
// FIN is sent. Reads of data received before the peer's FIN still succeed.
func (c *Conn) Close() {
	switch c.state {
	case StateClosed, StateListen:
		c.teardown(nil)
		return
	case StateSynSent:
		// RFC 793: close in SYN-SENT deletes the TCB — nothing was
		// established, nothing needs a FIN. Wall-clock callers (uTCP over
		// real sockets) hit this when an application gives up mid-dial.
		// Queued data keeps the legacy deferral: establishment will
		// deliver it, and the caller closes again afterwards (the
		// write-then-close pattern the sim tests pin).
		if c.sendQBytes == 0 {
			c.teardown(nil)
		}
		return
	case StateEstablished:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	default:
		return
	}
	c.finQueued = true
	c.trySend()
}

// Abort sends RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state != StateClosed && c.out != nil {
		c.emit(&Segment{Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagRST | FlagACK, Window: c.advertisedWindow()})
	}
	c.teardown(ErrReset)
}

func (c *Conn) teardown(err error) {
	if c.state == StateClosed && c.err != nil {
		return
	}
	c.err = err
	c.setState(StateClosed)
	c.stopAllTimers()
	c.dropSendState()
	// A closed connection ignores input, so the reorder buffer can never
	// drain into the read queues: release its copies now.
	c.asm.Discard(math.MaxUint64)
	if c.onClose != nil {
		fn := c.onClose
		c.onClose = nil
		fn(err)
	}
}

// emit sends a segment, stamping common fields.
func (c *Conn) emit(seg *Segment) {
	c.stats.SegsSent++
	if c.out != nil {
		c.out(seg)
	}
}

func (c *Conn) sendSYN(synack bool) {
	seg := &Segment{Seq: c.iss, Flags: FlagSYN, Window: c.cfg.RecvBufBytes}
	if synack {
		seg.Flags |= FlagACK
		seg.Ack = c.rcvNxt
	}
	c.emit(seg)
	c.armHandshakeRetx(synack)
}

func (c *Conn) armHandshakeRetx(synack bool) {
	c.stopTimer(&c.rtxTimer)
	backoff := c.rto()
	c.rtxTimer = c.rtm.Schedule(backoff, func() {
		if c.state == StateSynSent || c.state == StateSynReceived {
			c.synRetries++
			if c.synRetries > 6 {
				c.teardown(ErrTimeout)
				return
			}
			c.rtoBackoff++
			c.sendSYN(synack)
		}
	})
}

// Input delivers a segment arriving from the network. It drives the entire
// state machine.
func (c *Conn) Input(seg *Segment) {
	c.stats.SegsReceived++
	if seg.Flags.Has(FlagRST) {
		if c.state != StateClosed && c.state != StateListen {
			c.teardown(ErrReset)
		}
		return
	}

	switch c.state {
	case StateClosed:
		return
	case StateListen:
		if seg.Flags.Has(FlagSYN) {
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.iss = uint64(c.rtm.Rand().Int63n(1 << 30))
			c.sndUna, c.sndNxt = c.iss, c.iss
			c.sndWnd = seg.Window
			c.setState(StateSynReceived)
			c.sendSYN(true)
		}
		return
	case StateSynSent:
		if seg.Flags.Has(FlagSYN|FlagACK) && seg.Ack == c.iss+1 {
			c.irs = seg.Seq
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.sndNxt = seg.Ack
			c.sndWnd = seg.Window
			c.synRetries = 0
			c.rtoBackoff = 0
			c.stopTimer(&c.rtxTimer)
			c.setState(StateEstablished)
			// Complete the handshake.
			c.sendAck()
			c.notifyWritable()
			c.trySend()
		}
		return
	case StateSynReceived:
		if seg.Flags.Has(FlagACK) && seg.Ack == c.iss+1 && !seg.Flags.Has(FlagSYN) {
			c.sndUna = seg.Ack
			c.sndNxt = seg.Ack
			c.sndWnd = seg.Window
			c.synRetries = 0
			c.rtoBackoff = 0
			c.stopTimer(&c.rtxTimer)
			c.setState(StateEstablished)
			c.notifyWritable()
			// Fall through: the handshake ACK may carry data.
			if len(seg.Payload) == 0 && !seg.Flags.Has(FlagFIN) {
				c.trySend()
				return
			}
		} else if seg.Flags.Has(FlagSYN) {
			// SYN retransmission from the peer: re-send SYN-ACK.
			c.sendSYN(true)
			return
		} else {
			return
		}
	}

	// Established or closing states.
	if seg.Flags.Has(FlagACK) {
		c.processAck(seg)
	}
	if len(seg.Payload) > 0 || seg.Flags.Has(FlagFIN) {
		c.processData(seg)
	}
	c.trySend()
	c.maybeFinish()
}

// maybeFinish advances the teardown state machine.
func (c *Conn) maybeFinish() {
	switch c.state {
	case StateFinWait1:
		if c.finSent && c.sndUna > c.finSeq {
			if c.peerFinReceived {
				c.teardown(nil) // simultaneous close fully acked
			} else {
				c.setState(StateFinWait2)
			}
		}
	case StateClosing, StateLastAck:
		if c.finSent && c.sndUna > c.finSeq {
			c.teardown(nil)
		}
	case StateFinWait2:
		if c.peerFinReceived {
			c.teardown(nil)
		}
	}
}

// notifyReadable and notifyWritable deliver application callbacks through
// zero-delay simulator events (coalesced), so protocol code never re-enters
// itself through an application callback mid-operation.
func (c *Conn) notifyReadable() {
	if c.onReadable == nil || c.readableQueued {
		return
	}
	c.readableQueued = true
	c.rtm.Schedule(0, c.readableFn)
}

func (c *Conn) notifyWritable() {
	if c.onWritable == nil || c.writableQueued {
		return
	}
	c.writableQueued = true
	c.rtm.Schedule(0, c.writableFn)
}

func (c *Conn) stopTimer(t *rt.Timer) {
	if *t != nil {
		(*t).Stop()
		*t = nil
	}
}

func (c *Conn) stopAllTimers() {
	c.stopTimer(&c.rtxTimer)
	c.stopTimer(&c.delAckTimer)
	c.stopTimer(&c.persistTimer)
}

// dropSendState discards the send queue and retransmission scoreboard on
// teardown WITHOUT releasing their pooled buffers: an abortive teardown
// (RST, timeout) has no acknowledgment proving in-flight copies of those
// bytes were consumed, so returning the arenas to the pool could recycle
// them under a segment still queued in a network element. The references
// are simply dropped and the arenas reclaimed by the garbage collector —
// the safe direction of the buffer discipline. (The ACK-driven release in
// handleNewAck is not affected: a cumulative ack proves the receiver is
// past those bytes, so any straggling duplicate takes the early
// full-duplicate return without reading its payload.) Receive-side queues
// are left intact: data received before the peer's FIN remains readable
// after close.
func (c *Conn) dropSendState() {
	c.txSegs = nil
	c.sendQ = nil
	c.sqHead = 0
	c.sendQBytes = 0
}

// StreamOffsetOf converts an absolute receive-side sequence number to a
// logical stream offset (seq - ISN - 1, the subtraction the uTCP stack
// performs for the metadata header).
func (c *Conn) StreamOffsetOf(seq uint64) uint64 { return seq - c.irs - 1 }
