package wire

import (
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// lifecyclePair builds a conn pair in the requested I/O shape: dedicated
// loops, group loops without pollers ("shared"), or polled group loops.
func lifecyclePair(t *testing.T, mode string, cfg Config) (*Conn, *Conn) {
	t.Helper()
	switch mode {
	case "dedicated":
		return pipePair(t, cfg)
	case "shared":
		return sharedPair(t, cfg)
	case "poll":
		return pollPair(t, cfg)
	}
	t.Fatalf("unknown mode %q", mode)
	return nil, nil
}

// watchErr registers an OnError hook and returns the channel its terminal
// error arrives on.
func watchErr(t *testing.T, c *Conn) <-chan error {
	t.Helper()
	ch := make(chan error, 1)
	if !c.Do(func() { c.OnError(func(err error) { ch <- err }) }) {
		t.Fatalf("conn loop already closed")
	}
	return ch
}

func waitTimeoutErr(t *testing.T, ch <-chan error, what string) {
	t.Helper()
	select {
	case err := <-ch:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: terminal error = %v, want ErrTimeout", what, err)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("%s: ErrTimeout does not satisfy net.Error.Timeout()", what)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no terminal error within 5s", what)
	}
}

func TestReadIdleTimeoutAborts(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			// Only a idles out: a deadline on b as well could abort b
			// first and end a's read side with EOF instead of ErrTimeout.
			cfgA := Config{ReadIdleTimeout: 50 * time.Millisecond}
			var cfgB Config
			if mode != "dedicated" {
				gA, gB := newGroup(2, mode == "poll"), newGroup(2, mode == "poll")
				t.Cleanup(func() { gA.Close(); gB.Close() })
				cfgA.Group, cfgB.Group = gA, gB
			}
			a, _ := pipePairCfg(t, cfgA, cfgB)
			errs := watchErr(t, a)
			// Nobody sends: the idle deadline must fire.
			waitTimeoutErr(t, errs, "read idle")
		})
	}
}

// TestOnErrorLatchesEarlyAbort: a terminal error that fires before any
// hook registers is latched, and a hook registered afterwards fires at
// once with the cause. Group modes only — a dedicated connection's loop
// stops with it, leaving nothing to register on.
func TestOnErrorLatchesEarlyAbort(t *testing.T) {
	for _, mode := range []string{"shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			polled := mode == "poll"
			if polled && !pollSupported {
				t.Skip("no poller")
			}
			gA, gB := newGroup(1, polled), newGroup(1, polled)
			t.Cleanup(func() { gA.Close(); gB.Close() })
			// Only a idles out: a deadline on b could end a's read side
			// first, with EOF instead of ErrTimeout.
			a, _ := pipePairCfg(t,
				Config{ReadIdleTimeout: time.Millisecond, Group: gA},
				Config{Group: gB})
			// Wait for the abort itself: Read surfaces the latched cause.
			deadline := time.Now().Add(5 * time.Second)
			for {
				var err error
				a.Do(func() { _, err = a.Read(make([]byte, 1)) })
				if errors.Is(err, ErrTimeout) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no read-idle abort within 5s (Read: %v)", err)
				}
				time.Sleep(time.Millisecond)
			}
			waitTimeoutErr(t, watchErr(t, a), "hook registered after the abort")
		})
	}
}

func TestReadTrafficDefersIdleTimeout(t *testing.T) {
	// Asymmetric: only a has the idle deadline — b receives nothing, and a
	// deadline on b would FIN the pipe mid-test.
	a, b := pipePairCfg(t,
		Config{ReadIdleTimeout: 200 * time.Millisecond, NoDelay: true},
		Config{NoDelay: true})
	errs := watchErr(t, a)
	// Feed a byte every 50ms for 600ms: well past the idle window, but the
	// clock keeps resetting, so no timeout may fire during that span.
	stop := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(stop) {
		b.Do(func() { b.Write([]byte{1}) })
		select {
		case err := <-errs:
			t.Fatalf("idle timeout fired despite traffic: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	// Then silence: now it must fire.
	waitTimeoutErr(t, errs, "post-traffic idle")
}

// stallConfig shapes a conn pair for write-stall tests: small kernel
// buffers (the kernel floors/doubles the request, so the real capacity is
// bigger than asked) and a user-level queue large enough that the kernel
// cannot absorb it all — bytes must remain queued, stalled, after the
// peer stops reading.
func stallConfig(extra Config) Config {
	extra.SockSendBufBytes = 4 * 1024
	extra.SockRecvBufBytes = 4 * 1024
	extra.SendBufBytes = 4 * 1024 * 1024
	extra.NoDelay = true
	return extra
}

func fillUntilStall(t *testing.T, a *Conn) {
	t.Helper()
	chunk := bytes.Repeat([]byte("stall!!!"), 8*1024) // 64 KiB
	for i := 0; i < 256; i++ {
		blocked := false
		a.Do(func() {
			if _, err := a.Write(chunk); err == tcp.ErrWouldBlock {
				blocked = true
			}
		})
		if blocked {
			return
		}
	}
	t.Fatalf("send path never hit backpressure")
}

func TestWriteStallEvicts(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			a, _ := lifecyclePair(t, mode, stallConfig(Config{WriteStallTimeout: 80 * time.Millisecond}))
			errs := watchErr(t, a)
			fillUntilStall(t, a)
			waitTimeoutErr(t, errs, "write stall")
		})
	}
}

func TestWriteStallShedsThenEscalates(t *testing.T) {
	a, _ := pipePair(t, stallConfig(Config{
		WriteStallTimeout: 60 * time.Millisecond,
		StallPolicy:       StallShed,
	}))
	errs := watchErr(t, a)
	var sheds atomic.Int32
	a.Do(func() {
		a.OnStall(func() int {
			// First deadline: pretend we shed upstream work (buys a new
			// window). Second: nothing left — the policy must escalate.
			if sheds.Add(1) == 1 {
				return 4096
			}
			return 0
		})
	})
	fillUntilStall(t, a)
	waitTimeoutErr(t, errs, "stall escalation")
	if got := sheds.Load(); got < 2 {
		t.Fatalf("OnStall ran %d times, want >= 2 (shed, then escalate)", got)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	a, b := pipePair(t, Config{})
	done := make(chan struct{})
	go func() {
		a.Close()
		a.Close() // second close must return immediately, not hang or panic
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("double Close hung")
	}
	b.Close()
	b.Close()
}

func TestCloseDuringParkedWrite(t *testing.T) {
	if !pollSupported {
		t.Skip("no poller")
	}
	a, _ := pollPair(t, stallConfig(Config{}))
	fillUntilStall(t, a) // parks the poll-mode writer on EPOLLOUT
	old := closeLinger.Load()
	closeLinger.Store(int64(200 * time.Millisecond))
	defer closeLinger.Store(old)
	done := make(chan struct{})
	go func() { a.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close hung on a parked write")
	}
	// Close's teardown reads the linger in the background: restoring it
	// before the parked writer finished would leave this connection
	// writing into later tests for the default linger.
	select {
	case <-a.writerDone:
	case <-time.After(5 * time.Second):
		t.Fatalf("parked writer still running 5s after Close")
	}
}

// TestCloseLingerBounded: against a peer that never drains, Close's
// linger must bound the writer. Close itself returns at once (teardown
// runs in the background), so the test waits on the write side actually
// finishing, and counts the writes it issues after Close: a write failed
// by the linger deadline is terminal, not a cue to retry.
func TestCloseLingerBounded(t *testing.T) {
	const linger = 150 * time.Millisecond
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			a, _ := lifecyclePair(t, mode, stallConfig(Config{}))
			fillUntilStall(t, a)
			old := closeLinger.Load()
			closeLinger.Store(int64(linger))
			defer closeLinger.Store(old)
			writes := ReadIOStats().TCPWriteCalls
			start := time.Now()
			a.Close()
			select {
			case <-a.writerDone:
			case <-time.After(5 * time.Second):
				t.Fatalf("writer still running 5s after Close with a %v linger", linger)
			}
			if el := time.Since(start); el > linger+250*time.Millisecond {
				t.Errorf("writer finished %v after Close, want within linger %v + 250ms", el, linger)
			}
			if n := ReadIOStats().TCPWriteCalls - writes; n > 4 {
				t.Errorf("%d socket writes after Close against a stalled peer, want at most 4", n)
			}
		})
	}
}

func TestAbortUnblocksAndReportsOnce(t *testing.T) {
	for _, mode := range []string{"dedicated", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			a, _ := lifecyclePair(t, mode, stallConfig(Config{}))
			var fires atomic.Int32
			a.Do(func() { a.OnError(func(error) { fires.Add(1) }) })
			fillUntilStall(t, a)
			a.Abort(ErrTimeout)
			a.Abort(ErrTimeout) // idempotent
			a.Close()
			deadline := time.Now().Add(5 * time.Second)
			for fires.Load() == 0 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := fires.Load(); got != 1 {
				t.Fatalf("OnError fired %d times, want exactly 1", got)
			}
		})
	}
}

func TestKeepAliveConfigApplies(t *testing.T) {
	// Smoke test: the knob must not break the connection (deep inspection
	// of TCP_KEEPIDLE needs /proc walking; the sockopt path is shared with
	// the buffer knobs covered elsewhere).
	a, b := pipePair(t, Config{KeepAlive: 10 * time.Second, NoDelay: true})
	msg := []byte("keepalive-smoke")
	a.Do(func() { a.Write(msg) })
	got := collect(t, b, len(msg))
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip with keepalive: got %q", got)
	}
}

func TestDialTimeoutConnects(t *testing.T) {
	// A generous timeout must not interfere with a healthy local connect.
	ln, err := Listen("tcp", "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	c, err := Dial("tcp", ln.Addr().String(), Config{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("Dial with timeout: %v", err)
	}
	c.Close()
}

func TestDialTimeoutExpires(t *testing.T) {
	// RFC 5737 TEST-NET-1 addresses are unroutable: the connect hangs until
	// the timeout cuts it. If some network config answers, skip.
	_, err := Dial("tcp", "192.0.2.1:9", Config{DialTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Skip("test network unexpectedly reachable")
	}
	if !errors.Is(err, ErrTimeout) {
		// Immediate unreachability (ENETUNREACH) is fine too — only a hang
		// would be a failure, and the Dial returned.
		t.Logf("connect failed fast with %v (no route): acceptable", err)
	}
}

// TestWatchdogSurvivesQuietConn pins down the re-arm path: a connection
// with deadlines but healthy traffic must keep its watchdog alive without
// leaking timers or misfiring.
func TestWatchdogRearmsWithoutMisfire(t *testing.T) {
	a, b := pipePair(t, Config{
		ReadIdleTimeout:   80 * time.Millisecond,
		WriteStallTimeout: 80 * time.Millisecond,
		NoDelay:           true,
	})
	errsA := watchErr(t, a)
	// Symmetric chatter keeps both clocks fresh across many watchdog runs.
	for i := 0; i < 10; i++ {
		a.Do(func() { a.Write([]byte{byte(i)}) })
		b.Do(func() { b.Write([]byte{byte(i)}) })
		select {
		case err := <-errsA:
			t.Fatalf("watchdog misfired on a healthy conn: %v", err)
		case <-time.After(30 * time.Millisecond):
		}
	}
}

func TestBufBalanceAfterLifecycleChurn(t *testing.T) {
	// The deadline/abort paths must not leak pooled buffers: run a quick
	// churn of timed-out connections and check the pool ledger settles.
	before := buf.Stats()
	for i := 0; i < 8; i++ {
		// The deadline must comfortably outlast watchErr's registration
		// (an abort that beats the hook leaves nothing to observe).
		a, _ := pipePairCfg(t, Config{ReadIdleTimeout: 100 * time.Millisecond}, Config{})
		errs := watchErr(t, a)
		waitTimeoutErr(t, errs, "churn idle")
		a.Close()
	}
	waitBufBalance(t, before)
}

// waitBufBalance polls until every arena taken since `before` has been
// returned (puts catch up to gets - unpooled, in deltas), failing after
// 5s. The comparison is >= rather than ==: the pool ledger is process-
// global, so teardown stragglers from earlier tests can add puts whose
// gets predate the snapshot.
func waitBufBalance(t *testing.T, before buf.PoolStats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var g, p, u uint64
	for time.Now().Before(deadline) {
		now := buf.Stats()
		g, p, u = now.Gets-before.Gets, now.Puts-before.Puts, now.Unpooled-before.Unpooled
		if p >= g-u {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("buffer leak: ΔGets=%d ΔUnpooled=%d ΔPuts=%d (want puts >= gets-unpooled)", g, u, p)
}
