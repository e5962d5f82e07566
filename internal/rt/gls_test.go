package rt

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestFastGoidMatchesSlowPath: the discovered-offset read and the stack
// header parse must agree, on the test goroutine and on fresh ones.
func TestFastGoidMatchesSlowPath(t *testing.T) {
	if fastGoid() != goid() {
		t.Fatalf("fastGoid() = %d, goid() = %d", fastGoid(), goid())
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if fastGoid() != goid() {
			t.Errorf("spawned goroutine: fastGoid() = %d, goid() = %d", fastGoid(), goid())
		}
	}()
	<-done
}

// TestGoidAllocFree: the stack-header parse is the identity check on
// every Do, TryRun and foreign post where there is no getg stub (386,
// arm), so it must not allocate.
func TestGoidAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if n := testing.AllocsPerRun(100, func() { goid() }); n != 0 {
		t.Fatalf("goid: %.1f allocs per call, want 0", n)
	}
}

// TestGoidOffsetDiscovered: on architectures with a getg stub the
// empirical scan must find the goid field, or every identity check in
// the process silently pays the slow parse.
func TestGoidOffsetDiscovered(t *testing.T) {
	if getg() == nil {
		t.Skip("no getg stub on this architecture")
	}
	if goidOff < 0 {
		t.Fatalf("goid offset not discovered despite getg stub")
	}
}

// TestSpawnedGoroutineIsNotEventGoroutine guards the soundness hole that
// motivated the goid-based identity check: the runtime copies profiler
// labels into child goroutines, so a goroutine forked from inside a loop
// callback carries the event goroutine's label set. It must still be
// identified as an outsider — running its Do inline would race the live
// event goroutine.
func TestSpawnedGoroutineIsNotEventGoroutine(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	verdict := make(chan bool, 1)
	l.Do(func() {
		go func() { verdict <- l.onExecutor() }()
	})
	if <-verdict {
		t.Fatal("goroutine spawned from a loop callback misidentified as the event goroutine")
	}
}

// TestEventGoroutineMarkerIsValidProfLabel: the rt-loop=event label the
// event goroutine installs is pure observability now, but it must still
// be a genuine pprof label map (profile consumers dereference the slot)
// and must show up when the goroutine profile walks labels.
func TestEventGoroutineMarkerIsValidProfLabel(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	// Exercise both identity paths: marshalled (other goroutine) and
	// inline (reentrant Do from the event goroutine).
	ok := false
	if !l.Do(func() { ok = l.Do(func() {}) }) {
		t.Fatal("Do failed on a live loop")
	}
	if !ok {
		t.Fatal("reentrant Do failed")
	}
	// The event goroutine may be mid-transition when the profile
	// snapshots (a goroutine in flight can miss a snapshot entirely), so
	// allow a few attempts for it to settle into its parked state.
	var buf bytes.Buffer
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf.Reset()
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatalf("goroutine profile: %v", err)
		}
		if strings.Contains(buf.String(), "rt-loop") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("event goroutine's rt-loop label never visible in the goroutine profile:\n%.2000s", buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDoInlineAfterLabelClobber: user code replacing the goroutine's
// profiler labels must not disturb the identity check — goroutine ids
// do not live in the label slot.
func TestDoInlineAfterLabelClobber(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	ran := false
	l.Do(func() {
		// Clobber the observability label with an ordinary user label set.
		pprof.SetGoroutineLabels(pprof.WithLabels(t.Context(), pprof.Labels("user", "labels")))
		// The reentrant Do must still detect the event goroutine and run
		// inline rather than deadlocking on a marshalled post to ourselves.
		l.Do(func() { ran = true })
	})
	if !ran {
		t.Fatal("reentrant Do did not run after label clobber")
	}
}
