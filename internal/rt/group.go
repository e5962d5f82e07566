package rt

import (
	"runtime"
	"sync"
)

// LoopGroup owns a fixed set of Loops — typically one per core — and
// spreads connections across them. It is the shared-loop runtime mode: at
// thousands of connections, per-connection event goroutines stop paying
// for themselves, so N connections multiplex each loop while per-lane FIFO
// ordering keeps every connection's callbacks serial and in order.
//
// Assignment is least-loaded with round-robin tie-breaking, so K
// back-to-back Assigns land within one connection of each other across the
// loops (the accept-loadbalance property), and Release keeps the load
// accounting honest for long-lived mixes of connection lifetimes.
type LoopGroup struct {
	mu    sync.Mutex
	loops []*Loop
	load  []int
	rr    int // round-robin cursor for ties
}

// NewLoopGroup starts a group of n loops; n <= 0 means GOMAXPROCS (the
// loop-per-core default). Close the group to release the event goroutines.
func NewLoopGroup(n int) *LoopGroup {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	g := &LoopGroup{loops: make([]*Loop, n), load: make([]int, n)}
	for i := range g.loops {
		g.loops[i] = NewLoop()
	}
	return g
}

// Len returns the number of loops.
func (g *LoopGroup) Len() int { return len(g.loops) }

// Loop returns the i'th loop.
func (g *LoopGroup) Loop(i int) *Loop { return g.loops[i] }

// Index returns l's position in the group, or -1 for a foreign loop. The
// loops slice is written once at construction, so no lock is needed.
func (g *LoopGroup) Index(l *Loop) int {
	for i, lp := range g.loops {
		if lp == l {
			return i
		}
	}
	return -1
}

// Assign picks the least-loaded loop (ties broken round-robin) and counts
// a connection against it. Pair with Release when the connection closes.
func (g *LoopGroup) Assign() *Loop {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.loops)
	best := -1
	for i := 0; i < n; i++ {
		j := (g.rr + i) % n
		if best < 0 || g.load[j] < g.load[best] {
			best = j
		}
	}
	g.rr = (best + 1) % n
	g.load[best]++
	return g.loops[best]
}

// AssignLoop counts a connection against loop i specifically, bypassing
// least-loaded selection — the sharded-accept path, where the kernel
// (SO_REUSEPORT) already routed the connection to the loop that owns the
// accepting socket and reassigning it elsewhere would migrate the
// connection off its loop. Pair with Release exactly like Assign.
func (g *LoopGroup) AssignLoop(i int) *Loop {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.load[i]++
	return g.loops[i]
}

// Release returns a connection's slot on l to the group.
func (g *LoopGroup) Release(l *Loop) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, lp := range g.loops {
		if lp == l {
			if g.load[i] > 0 {
				g.load[i]--
			}
			return
		}
	}
}

// Loads returns a snapshot of per-loop connection counts, index-aligned
// with Loop(i).
func (g *LoopGroup) Loads() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]int, len(g.load))
	copy(out, g.load)
	return out
}

// Close shuts every loop down, with Loop.Close's contract: accepted lane
// work runs, pending timers never do.
func (g *LoopGroup) Close() {
	for _, l := range g.loops {
		l.Close()
	}
}
