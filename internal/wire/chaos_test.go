package wire

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// Chaos tests: drive the production datapaths through injected failure
// storms (FaultHooks) and assert the lifecycle invariants — every affected
// flow terminates with a typed error, buffers return to the pool, and no
// goroutines leak. Hooks are process-wide, so these tests are serial by
// construction (Go runs same-package tests sequentially) and each one
// uninstalls its hooks before checking balance.

// chaosCheck snapshots goroutine and buffer-pool baselines and registers
// the convergence checks for cleanup time.
func chaosCheck(t *testing.T) {
	t.Helper()
	bufBefore := buf.Stats()
	goroBefore := runtime.NumGoroutine()
	t.Cleanup(func() {
		SetFaultHooks(nil)
		waitBufBalance(t, bufBefore)
		waitGoroutines(t, goroBefore)
	})
}

// waitGoroutines polls until the goroutine count returns to (or below) the
// baseline plus a small slack for test-runner noise.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
}

func TestChaosReadReset(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			chaosCheck(t)
			a, b := lifecyclePair(t, mode, Config{NoDelay: true})
			errs := watchErr(t, a)
			// Inject ECONNRESET into the next read on any conn; a's reader
			// is the likeliest consumer, but either side dying closes the
			// pipe and terminates a with a typed error.
			var once atomic.Bool
			SetFaultHooks(&FaultHooks{Read: func(size int) (int, error) {
				if once.CompareAndSwap(false, true) {
					return 0, syscall.ECONNRESET
				}
				return 0, nil
			}})
			b.Do(func() { b.Write([]byte("poke")) })
			select {
			case err := <-errs:
				if err == nil {
					t.Fatalf("terminal error is nil")
				}
			case <-time.After(5 * time.Second):
				// The injected reset may have landed on b's reader instead
				// (a reader goroutine consults the hook before it blocks,
				// so one that starts late takes the fault). An injected
				// reset leaves b's socket open, unlike a real one, so close
				// b as the reset would have; a then sees a peer close,
				// which is EOF, not an error — and OnError only fires at
				// teardown. Force it.
				b.Close()
				a.Close()
				select {
				case <-errs:
				case <-time.After(5 * time.Second):
					t.Fatalf("no terminal error after reset + close")
				}
			}
			a.Close()
			b.Close()
		})
	}
}

func TestChaosEAGAINStormIntegrity(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			chaosCheck(t)
			a, b := lifecyclePair(t, mode, Config{NoDelay: true})
			// Every third read and write spuriously EAGAINs: the retry
			// paths (synthetic re-raised edges in poll mode, plain retry in
			// the blocking shapes) must deliver the stream intact anyway.
			var rn, wn atomic.Int64
			SetFaultHooks(&FaultHooks{
				Read: func(size int) (int, error) {
					if rn.Add(1)%3 == 0 {
						return 0, syscall.EAGAIN
					}
					return 0, nil
				},
				Write: func(size int) (int, error) {
					if wn.Add(1)%3 == 0 {
						return 0, syscall.EAGAIN
					}
					return 0, nil
				},
			})
			msg := bytes.Repeat([]byte("storm-"), 4096)
			go a.Do(func() {
				for off := 0; off < len(msg); {
					n, err := a.Write(msg[off:])
					if err == tcp.ErrWouldBlock {
						continue
					}
					if err != nil {
						t.Errorf("Write under storm: %v", err)
						return
					}
					off += n
				}
			})
			got := collect(t, b, len(msg))
			SetFaultHooks(nil)
			if !bytes.Equal(got, msg) {
				t.Fatalf("stream corrupted under EAGAIN storm: %d/%d bytes", len(got), len(msg))
			}
			a.Close()
			b.Close()
		})
	}
}

func TestChaosPartialWriteIntegrity(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			chaosCheck(t)
			a, b := lifecyclePair(t, mode, Config{NoDelay: true})
			// Cap every vectored write at 7 bytes: maximal fragmentation
			// across buffer boundaries. The staged prefix must preserve
			// byte order and ownership exactly.
			SetFaultHooks(&FaultHooks{Write: func(size int) (int, error) {
				if size > 7 {
					return 7, nil
				}
				return 0, nil
			}})
			msg := bytes.Repeat([]byte("partial-write-chaos-"), 512)
			go a.Do(func() {
				for off := 0; off < len(msg); {
					n, err := a.Write(msg[off:])
					if err == tcp.ErrWouldBlock {
						continue
					}
					if err != nil {
						t.Errorf("Write under caps: %v", err)
						return
					}
					off += n
				}
			})
			got := collect(t, b, len(msg))
			SetFaultHooks(nil)
			if !bytes.Equal(got, msg) {
				t.Fatalf("stream corrupted under partial writes: %d/%d bytes", len(got), len(msg))
			}
			a.Close()
			b.Close()
		})
	}
}

func TestChaosShortReadIntegrity(t *testing.T) {
	for _, mode := range []string{"dedicated", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			chaosCheck(t)
			a, b := lifecyclePair(t, mode, Config{NoDelay: true})
			// Cap every read at 5 bytes: the reader must keep its buffer
			// accounting and (in poll mode) re-raise the consumed edge.
			SetFaultHooks(&FaultHooks{Read: func(size int) (int, error) {
				if size > 5 {
					return 5, nil
				}
				return 0, nil
			}})
			msg := bytes.Repeat([]byte("short-read-"), 256)
			go a.Do(func() {
				for off := 0; off < len(msg); {
					n, err := a.Write(msg[off:])
					if err == tcp.ErrWouldBlock {
						continue
					}
					if err != nil {
						t.Errorf("Write: %v", err)
						return
					}
					off += n
				}
			})
			got := collect(t, b, len(msg))
			SetFaultHooks(nil)
			if !bytes.Equal(got, msg) {
				t.Fatalf("stream corrupted under short reads: %d/%d bytes", len(got), len(msg))
			}
			a.Close()
			b.Close()
		})
	}
}

func TestChaosWriteKillFailsQueue(t *testing.T) {
	for _, mode := range []string{"dedicated", "shared", "poll"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "poll" && !pollSupported {
				t.Skip("no poller")
			}
			chaosCheck(t)
			a, _ := lifecyclePair(t, mode, Config{NoDelay: true})
			errs := watchErr(t, a)
			SetFaultHooks(&FaultHooks{Write: func(size int) (int, error) {
				return 0, syscall.EPIPE
			}})
			a.Do(func() { a.Write(bytes.Repeat([]byte("doomed"), 1024)) })
			select {
			case err := <-errs:
				if err == nil {
					t.Fatalf("terminal error is nil")
				}
			case <-time.After(5 * time.Second):
				// The write side died; OnError may wait for teardown in
				// shapes where the read side is still healthy.
				a.Close()
				select {
				case <-errs:
				case <-time.After(5 * time.Second):
					t.Fatalf("no terminal error after write kill")
				}
			}
		})
	}
}

func TestChaosAcceptEMFILEBurst(t *testing.T) {
	chaosCheck(t)
	before := ReadIOStats()
	// The first 3 accepts hit injected EMFILE; the listener must back off,
	// count the backoffs, and still accept the pending connection.
	var left atomic.Int64
	left.Store(3)
	SetFaultHooks(&FaultHooks{Accept: func() error {
		if left.Add(-1) >= 0 {
			return syscall.EMFILE
		}
		return nil
	}})
	ln, err := Listen("tcp", "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	a, err := Dial("tcp", ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer a.Close()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Accept after EMFILE burst: %v", r.err)
		}
		r.c.Close()
	case <-time.After(10 * time.Second):
		t.Fatalf("accept never recovered from EMFILE burst")
	}
	SetFaultHooks(nil)
	after := ReadIOStats()
	if got := after.AcceptBackoffs - before.AcceptBackoffs; got < 3 {
		t.Fatalf("AcceptBackoffs delta = %d, want >= 3", got)
	}
}

func TestChaosAcceptHardErrorCounted(t *testing.T) {
	chaosCheck(t)
	before := ReadIOStats()
	var left atomic.Int64
	left.Store(2)
	SetFaultHooks(&FaultHooks{Accept: func() error {
		if left.Add(-1) >= 0 {
			return syscall.ECONNABORTED
		}
		return nil
	}})
	ln, err := Listen("tcp", "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	// The injected hard errors surface from Accept (single-socket path)
	// or are absorbed with a retry (sharded); either way they are counted.
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				if errors.Is(err, syscall.ECONNABORTED) {
					continue
				}
				return
			}
			c.Close()
		}
	}()
	a, err := Dial("tcp", ln.Addr().String(), Config{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	a.Close()
	SetFaultHooks(nil)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ReadIOStats().AcceptErrors-before.AcceptErrors >= 2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("AcceptErrors delta = %d, want >= 2",
		ReadIOStats().AcceptErrors-before.AcceptErrors)
}

// TestChaosChurnBalance hammers the full lifecycle — connect, storm,
// abort, close — and checks the pool and goroutine ledgers settle.
func TestChaosChurnBalance(t *testing.T) {
	chaosCheck(t)
	var rn atomic.Int64
	SetFaultHooks(&FaultHooks{
		Read: func(size int) (int, error) {
			switch rn.Add(1) % 7 {
			case 0:
				return 0, syscall.EAGAIN
			case 3:
				return 3, nil
			}
			return 0, nil
		},
	})
	for i := 0; i < 6; i++ {
		mode := []string{"dedicated", "shared", "poll"}[i%3]
		if mode == "poll" && !pollSupported {
			continue
		}
		func() {
			a, b := lifecyclePair(t, mode, Config{NoDelay: true})
			b.Do(func() { b.Write(bytes.Repeat([]byte("churn"), 512)) })
			time.Sleep(10 * time.Millisecond)
			a.Abort(ErrTimeout)
			a.Close()
			b.Close()
		}()
	}
	SetFaultHooks(nil)
}
