package rt

import "time"

// The hashed timer wheel backing a Loop's Schedule.
//
// A shared loop carrying thousands of connections holds thousands of
// concurrent retransmit/delayed-ack-style timers, almost all of which are
// cancelled before they fire (the common fate of a retransmit timer). The
// binary heap this replaces paid O(log n) on every insert and every
// cancel; the wheel pays O(1) for both: a timer lives in the doubly-linked
// list of the slot its deadline hashes to, so cancellation is an unlink.
//
// Slots are hashed, not hierarchical: an entry in slot s may belong to any
// wheel round, so slot visits check each entry's absolute deadline. The
// wheel never needs to "cascade"; a visit that finds only future-round
// entries simply leaves them linked. With wheelSlots covering ~0.5 s at
// wheelTick granularity, protocol-scale timers (RTOs, delayed ACKs,
// keepalives within a few hundred ms) land in their own round and a slot
// visit touches only due entries in the common case.
//
// Firing order preserves the simulator's total order: due entries are
// sorted by (deadline, schedule sequence) before they run, so same-instant
// timers fire in the order they were scheduled, exactly like the event
// queue of sim.Simulator and the heap this replaces.
const (
	wheelSlots = 512 // power of two; slot = tick & wheelMask
	wheelMask  = wheelSlots - 1
	// wheelTick is the slot granularity. It bounds only bucketing — not
	// firing precision: the loop sleeps to the exact earliest deadline and
	// fires entries by absolute time, so a timer never fires early and
	// never waits on a tick boundary.
	wheelTick = time.Millisecond
)

// wentry is one scheduled timer, linked into its slot's list. All fields
// are guarded by the owning loop's mutex. wentry implements Timer.
type wentry struct {
	l   *Loop
	at  time.Duration // absolute deadline in loop time
	seq uint64        // schedule order, the same-deadline tiebreaker

	fn         func()
	next, prev *wentry
	slot       int16 // slot index, -1 once unlinked (fired or stopped)
	stopped    bool
}

// Stop implements Timer.
func (t *wentry) Stop() bool {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	if t.stopped || t.slot < 0 {
		return false
	}
	t.stopped = true
	t.l.unlink(t)
	return true
}

// Pending implements Timer.
func (t *wentry) Pending() bool {
	t.l.mu.Lock()
	defer t.l.mu.Unlock()
	return !t.stopped && t.slot >= 0
}

// When implements Timer.
func (t *wentry) When() time.Duration { return t.at }

// wheel is the slot array. Zero value ready; guarded by the loop mutex.
type wheel struct {
	slots    [wheelSlots]*wentry
	count    int   // linked entries
	lastTick int64 // newest tick whose slot collectDue has visited
}

func tickOf(at time.Duration) int64 { return int64(at / wheelTick) }

// insert links e into the slot its deadline hashes to.
func (w *wheel) insert(e *wentry) {
	s := int16(tickOf(e.at) & wheelMask)
	e.slot = s
	e.prev = nil
	e.next = w.slots[s]
	if e.next != nil {
		e.next.prev = e
	}
	w.slots[s] = e
	w.count++
}

// unlink removes e from its slot list. e must be linked.
func (w *wheel) unlink(e *wentry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		w.slots[e.slot] = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.next, e.prev = nil, nil
	e.slot = -1
	w.count--
}

// collectDue appends every entry with deadline <= now to due, leaving the
// entries linked (the caller unlinks each just before running it, so a
// callback earlier in the batch can still Stop a later one — the heap's
// pop-one-at-a-time semantics). Entries are appended in slot order, NOT
// deadline order; the caller sorts.
//
// Correctness of the visit window: Schedule clamps deadlines to >= Now at
// insert time and lastTick only ever advances to a past now, so every
// linked entry's tick is >= lastTick; visiting ticks [lastTick, nowTick]
// (capped at one full wheel revolution) therefore covers every slot that
// can hold a due entry.
func (w *wheel) collectDue(now time.Duration, due []*wentry) []*wentry {
	if w.count == 0 {
		w.lastTick = tickOf(now)
		return due
	}
	nowTick := tickOf(now)
	span := nowTick - w.lastTick
	if span >= wheelSlots {
		span = wheelSlots - 1
	}
	for i := int64(0); i <= span; i++ {
		s := (w.lastTick + i) & wheelMask
		for e := w.slots[s]; e != nil; e = e.next {
			if e.at <= now {
				due = append(due, e)
			}
		}
	}
	w.lastTick = nowTick
	return due
}

// next returns the earliest pending deadline. It scans slots in tick order
// from lastTick, so the first slot holding a current-round entry answers;
// only a wheel of entirely far-future timers falls through to the full
// scan. Called only when the loop is about to sleep.
func (w *wheel) next() (time.Duration, bool) {
	if w.count == 0 {
		return 0, false
	}
	for i := int64(0); i < wheelSlots; i++ {
		t := w.lastTick + i
		best := time.Duration(-1)
		for e := w.slots[t&wheelMask]; e != nil; e = e.next {
			if tickOf(e.at) == t && (best < 0 || e.at < best) {
				best = e.at
			}
		}
		if best >= 0 {
			return best, true
		}
	}
	// Everything is at least a full revolution out: global minimum.
	best := time.Duration(-1)
	for s := 0; s < wheelSlots; s++ {
		for e := w.slots[s]; e != nil; e = e.next {
			if best < 0 || e.at < best {
				best = e.at
			}
		}
	}
	return best, best >= 0
}
