package wire

import (
	"context"
	"sync"
	"time"

	"minion/internal/rt"
)

// Group is the shared-loop runtime for wire connections: an rt.LoopGroup
// (a loop per core by default) plus, where the platform has one (Linux),
// a readiness poller per loop. A connection attached to a polled Group
// costs zero goroutines (the loop's event goroutine does its I/O);
// without pollers it runs its own reader and writer goroutines, exactly
// like a dedicated connection, and only shares the loop.
//
// Shutdown is reference-counted: Close marks the group closed, but the
// loops and pollers keep running until the last attached connection
// detaches, so closing a listener never yanks the runtime out from under
// established connections.
type Group struct {
	mu      sync.Mutex
	lg      *rt.LoopGroup
	pollers map[*rt.Loop]*poller // empty when the group runs without pollers
	conns   map[*Conn]struct{}   // attached connections, for Shutdown's drain
	refs    int
	closed  bool
}

// NewGroup starts a shared-loop runtime of n loops (n <= 0 means
// GOMAXPROCS — loop per core), with a readiness poller per loop where the
// platform supports one. Close it when no more connections will be
// attached.
func NewGroup(n int) *Group { return newGroup(n, true) }

// newGroup is NewGroup with the pollers optional: poll false runs every
// connection on reader/writer goroutines, the shape platforms without a
// poller get, so tests can drive it on Linux too.
func newGroup(n int, poll bool) *Group {
	lg := rt.NewLoopGroup(n)
	g := &Group{
		lg:      lg,
		pollers: make(map[*rt.Loop]*poller, lg.Len()),
		conns:   make(map[*Conn]struct{}),
	}
	if !poll {
		return g
	}
	// Create every poller before installing any as its loop's parker: a
	// partially-polled group (some loops parked in epoll, some not) would
	// be incoherent, and a poller may not be closed once a live loop
	// parks through it.
	for i := 0; i < lg.Len(); i++ {
		p, ok := newPoller()
		if !ok {
			// No poller on this platform, or the kernel refused an epoll
			// instance: run the whole group without pollers.
			for _, q := range g.pollers {
				q.close()
			}
			clear(g.pollers)
			return g
		}
		g.pollers[lg.Loop(i)] = p
	}
	for loop, p := range g.pollers {
		// The loop's event goroutine now parks inside epoll_wait: socket
		// readiness and lane posts wake it through one mechanism, with no
		// poller goroutine in between.
		loop.SetParker(p)
	}
	return g
}

// Polled reports whether the group's loops run readiness pollers (its
// connections do their I/O on the loop) rather than a reader/writer
// goroutine pair per connection.
func (g *Group) Polled() bool { return len(g.pollers) > 0 }

// Len returns the number of loops.
func (g *Group) Len() int { return g.lg.Len() }

// Loads returns per-loop attached-connection counts, index-aligned with
// the group's loops — the observable side of accept load-balancing.
func (g *Group) Loads() []int { return g.lg.Loads() }

// pollRegistrations sums live poller fd registrations across the loops
// (tests assert it returns to zero after connection churn).
func (g *Group) pollRegistrations() int {
	n := 0
	for _, p := range g.pollers {
		n += p.registrations()
	}
	return n
}

// assign attaches a connection: a loop, that loop's poller (nil in a
// group without pollers), and a detach func. shard >= 0 pins the
// connection to that loop (sharded accept: the kernel already picked the
// loop by picking its listener socket); shard < 0 is least-loaded
// placement. ok is false once the group is closed.
func (g *Group) assign(shard int) (loop *rt.Loop, pl *poller, release func(), ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, nil, nil, false
	}
	g.refs++
	if shard >= 0 && shard < g.lg.Len() {
		loop = g.lg.AssignLoop(shard)
	} else {
		loop = g.lg.Assign()
	}
	pl = g.pollers[loop]
	var once sync.Once
	release = func() {
		once.Do(func() {
			g.mu.Lock()
			g.lg.Release(loop)
			g.refs--
			shutdown := g.closed && g.refs == 0
			g.mu.Unlock()
			if shutdown {
				g.shutdown()
			}
		})
	}
	return loop, pl, release, true
}

// retain takes a non-connection reference on the group's runtime — the
// sharded listener's hold, which keeps the loops and pollers alive while
// listener fds are registered on them without counting against any
// loop's connection load. The returned release is idempotent; ok is
// false once the group is closed.
func (g *Group) retain() (release func(), ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, false
	}
	g.refs++
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.refs--
			shutdown := g.closed && g.refs == 0
			g.mu.Unlock()
			if shutdown {
				g.shutdown()
			}
		})
	}, true
}

// loopShard returns loop i and its poller (nil without pollers) — the
// sharded listener's wiring view. It takes no reference; pair with
// retain.
func (g *Group) loopShard(i int) (*rt.Loop, *poller) {
	loop := g.lg.Loop(i)
	g.mu.Lock()
	pl := g.pollers[loop]
	g.mu.Unlock()
	return loop, pl
}

// Close stops accepting attachments and shuts the loops and pollers
// down once the last attached connection detaches (immediately if none
// are).
func (g *Group) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	shutdown := g.refs == 0
	g.mu.Unlock()
	if shutdown {
		g.shutdown()
	}
}

func (g *Group) shutdown() {
	g.lg.Close()
	for _, p := range g.pollers {
		p.close()
	}
}

// track registers an attached connection for Shutdown's drain sweep;
// untrack (wired into the connection's release) removes it.
func (g *Group) track(c *Conn) {
	g.mu.Lock()
	g.conns[c] = struct{}{}
	g.mu.Unlock()
}

func (g *Group) untrack(c *Conn) {
	g.mu.Lock()
	delete(g.conns, c)
	g.mu.Unlock()
}

// DrainStats reports what Group.Shutdown did with the connections it
// found attached.
type DrainStats struct {
	// Conns is how many connections were attached when the drain began.
	Conns int
	// Flushed counts connections whose queued writes fully reached the
	// kernel before their FIN.
	Flushed int
	// Aborted counts connections the context deadline cut off: their
	// remaining queue was failed with ErrTimeout and reported through the
	// OnError/OnResult accounting path rather than delivered.
	Aborted int
	// PerLoop is the drain-start connection count per group loop,
	// index-aligned with Loop(i)/Loads().
	PerLoop []int
}

// Shutdown gracefully drains the group: it stops new attachments, runs
// every attached connection's drain hook (upper-layer flush, TLS
// close_notify) followed by a graceful Close, and waits — bounded by ctx
// — for each connection's queued writes to reach the kernel before the
// FIN. Connections still undrained at the context deadline are aborted
// with ErrTimeout, which releases their buffers and reports their queued
// datagrams through the usual accounting hooks. The loops and pollers
// shut down once the last connection detaches (exactly as with
// Close). Must not be called from a loop callback: it blocks on loop
// work.
func (g *Group) Shutdown(ctx context.Context) DrainStats {
	g.mu.Lock()
	g.closed = true
	snapshot := make([]*Conn, 0, len(g.conns))
	for c := range g.conns {
		snapshot = append(snapshot, c)
	}
	g.mu.Unlock()

	st := DrainStats{Conns: len(snapshot), PerLoop: make([]int, g.lg.Len())}
	for _, c := range snapshot {
		if i := g.lg.Index(c.loop); i >= 0 {
			st.PerLoop[i]++
		}
	}
	// Start every drain before waiting on any: the flushes proceed in
	// parallel across loops, so the wall clock is the slowest connection,
	// not the sum.
	for _, c := range snapshot {
		c.beginDrain()
	}
	for _, c := range snapshot {
		// Fairness on a spent deadline: an already-flushed connection
		// counts as flushed even when ctx is also done.
		select {
		case <-c.writerDone:
			st.Flushed++
			continue
		default:
		}
		select {
		case <-c.writerDone:
			st.Flushed++
		case <-ctx.Done():
			c.Abort(ErrTimeout)
			st.Aborted++
		}
	}
	if st.Aborted > 0 {
		// Bounded courtesy wait: aborted writers finish failing their
		// queues almost immediately, and waiting lets callers assert
		// buffer balances right after Shutdown returns.
		dl := time.After(time.Second)
		for _, c := range snapshot {
			select {
			case <-c.writerDone:
			case <-dl:
			}
		}
	}
	g.mu.Lock()
	shutdown := g.refs == 0
	g.mu.Unlock()
	if shutdown {
		g.shutdown()
	}
	return st
}
