package wire

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"time"
)

// Listener accepts wire connections. It runs in one of two shapes:
//
//   - Single-socket (the portable default): one kernel listening socket,
//     Accept blocks in net.Listener.Accept, and each accepted connection
//     is placed on the least-loaded group loop (or its own dedicated
//     loop without a Group).
//   - SO_REUSEPORT-sharded (Linux groups with pollers): every loop in the
//     group owns its own listening socket bound to the same address,
//     registered edge-triggered on that loop's poller. The kernel hashes
//     each incoming 4-tuple to one of the sockets, so accepts are
//     distributed across loops without a shared accept lock, and the
//     accepted connection is pinned to the loop whose socket produced it
//     — it never migrates, so its cache-hot protocol state stays on one
//     core. See listener_linux.go.
//
// Sharding engages automatically in Listen when the config carries a
// Group with pollers on a platform with SO_REUSEPORT support; any setup
// failure falls back to the single-socket shape, which is always
// correct, just serialized.
type Listener struct {
	ln     net.Listener // single-socket shape; nil when sharded
	shards *shardSet    // sharded shape; nil otherwise
	cfg    Config
	io     *ioCounters
	closed atomic.Bool // unblocks a governor-paused Accept on Close/Drain
}

// acceptRetry delays the single-socket accept retry after fd exhaustion
// (the sharded shape's analogue is acceptBackoff in listener_linux.go).
const acceptRetry = 10 * time.Millisecond

// Listen announces on addr and returns a Listener whose accepted
// connections use cfg (including its Group, for shared-loop accepting).
func Listen(network, addr string, cfg Config) (*Listener, error) {
	if cfg.Group != nil && cfg.Group.Polled() {
		switch network {
		case "tcp", "tcp4", "tcp6":
			if ss, ok := listenSharded(network, addr, cfg); ok {
				return &Listener{shards: ss, cfg: cfg, io: nextIO()}, nil
			}
		}
	}
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &Listener{ln: ln, cfg: cfg, io: nextIO()}, nil
}

// fdExhausted reports the out-of-descriptors accept failures
// (EMFILE/ENFILE), which are transient: retrying after a backoff is the
// only correct response, since the pending connection stays in the
// kernel queue and failing the accept loop would kill the server over a
// recoverable condition.
func fdExhausted(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE)
}

// Accept waits for the next connection. Transient fd exhaustion
// (EMFILE/ENFILE) is retried after a backoff rather than surfaced —
// accept loops treat a returned error as fatal — and counted in
// IOStats.AcceptBackoffs; other failures count in IOStats.AcceptErrors
// (except the listener's own Close, which is not an error).
func (l *Listener) Accept() (*Conn, error) {
	if l.shards != nil {
		nc, shard, err := l.shards.accept()
		if err != nil {
			return nil, err
		}
		return newConn(nc, l.cfg, shard), nil
	}
	for {
		l.governorPause()
		if ferr := faultAccept(); ferr != nil {
			if fdExhausted(ferr) {
				l.io.acceptBackoffs.Add(1)
				time.Sleep(acceptRetry)
				continue
			}
			l.io.acceptErrors.Add(1)
			return nil, ferr
		}
		nc, err := l.ln.Accept()
		if err != nil {
			if fdExhausted(err) {
				l.io.acceptBackoffs.Add(1)
				time.Sleep(acceptRetry)
				continue
			}
			if !errors.Is(err, net.ErrClosed) {
				l.io.acceptErrors.Add(1)
			}
			return nil, err
		}
		return NewConn(nc, l.cfg), nil
	}
}

// governorPause holds the single-socket accept loop while the configured
// resource governor is over its high watermark: new connections wait in
// the kernel backlog (then SYN drops take over) instead of adding queue
// memory to an already-overloaded process. The pause is polled — the
// accept path is a plain blocking loop with no edge to wait on — and
// releases when usage drains below the low watermark or the listener
// closes. Episodes count in IOStats.AcceptPauses/AcceptResumes.
func (l *Listener) governorPause() {
	g := l.cfg.Governor
	if g == nil || !g.Overloaded() {
		return
	}
	l.io.acceptPauses.Add(1)
	for g.Overloaded() && !l.closed.Load() {
		time.Sleep(acceptRetry)
	}
	l.io.acceptResumes.Add(1)
}

// Addr returns the listening address (with the bound port).
func (l *Listener) Addr() net.Addr {
	if l.shards != nil {
		return l.shards.addr
	}
	return l.ln.Addr()
}

// Sharded reports whether this listener runs the SO_REUSEPORT-sharded
// accept path (one listening socket per group loop).
func (l *Listener) Sharded() bool { return l.shards != nil }

// ShardAccepts returns the number of connections each per-loop listener
// socket has accepted, index-aligned with the group's loops — the
// observable side of the kernel's SO_REUSEPORT distribution. Nil for a
// single-socket listener.
func (l *Listener) ShardAccepts() []uint64 {
	if l.shards == nil {
		return nil
	}
	return l.shards.acceptCounts()
}

// Close stops the listener (established connections are unaffected). In
// the sharded shape it drains every per-loop socket: each shard
// unregisters from its poller and closes its fd on its own loop, and
// Close returns only after all of them are down.
func (l *Listener) Close() error {
	l.closed.Store(true)
	if l.shards != nil {
		return l.shards.close()
	}
	return l.ln.Close()
}

// Drain is Close bounded by ctx: it stops accepting immediately in both
// shapes; in the sharded shape, where Close blocks until every per-loop
// socket has torn down on its own loop, an expired context returns
// ctx.Err() while the remaining teardowns finish in the background
// (accepting has already stopped either way). Established connections
// are unaffected — drain them with Group.Shutdown.
func (l *Listener) Drain(ctx context.Context) error {
	l.closed.Store(true)
	if l.shards != nil {
		return l.shards.drain(ctx)
	}
	return l.ln.Close()
}
