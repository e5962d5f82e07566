package minion

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// reservePort grabs a loopback listener, records its address, and closes
// it — an address that (momentarily) refuses connections but can be
// re-bound by the test.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestDialRetryExhausted dials an address nothing listens on: every
// attempt must fail, the typed give-up error must carry the attempt
// count, and errors.Is must reach the underlying connect error.
func TestDialRetryExhausted(t *testing.T) {
	addr := reservePort(t)
	start := time.Now()
	_, err := DialConfig{Retry: RetryConfig{
		Attempts:    3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}}.Dial(ProtoUCOBSTCP, "tcp", addr)
	if err == nil {
		t.Fatalf("dial of dead address succeeded")
	}
	var re *DialRetryError
	if !errors.As(err, &re) {
		t.Fatalf("error %T (%v), want *DialRetryError", err, err)
	}
	if re.Attempts != 3 || re.Last == nil {
		t.Fatalf("give-up error = %+v, want 3 attempts wrapping the last failure", re)
	}
	if errors.Unwrap(err) == nil {
		t.Fatalf("give-up error does not unwrap")
	}
	// 3 attempts = 2 sleeps (1ms + 2ms); far under a second even loaded.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("retry loop took %v", d)
	}
}

// TestDialRetryEventualSuccess starts the listener only after the first
// attempts have failed: the backoff loop must land a connection once the
// service appears.
func TestDialRetryEventualSuccess(t *testing.T) {
	addr := reservePort(t)
	var up atomic.Pointer[Listener]
	go func() {
		time.Sleep(30 * time.Millisecond)
		ln, err := Listen(ProtoUCOBSTCP, "tcp", addr, TCPConfig{})
		if err != nil {
			return // port raced away; the dial will exhaust and fail the test
		}
		up.Store(ln)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	t.Cleanup(func() {
		if ln := up.Load(); ln != nil {
			ln.Close()
		}
	})
	c, err := DialConfig{Retry: RetryConfig{
		Attempts:    20,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
		Jitter:      0.5,
	}}.Dial(ProtoUCOBSTCP, "tcp", addr)
	if err != nil {
		t.Fatalf("dial never succeeded: %v", err)
	}
	c.Close()
}

// TestDialRetryHandshakeFailure points a retrying uTLS dial at peers
// whose handshake never succeeds — over kernel TCP a plain acceptor that
// answers the hello with garbage, over uTCP a uCOBS listener that never
// answers it. With Retry enabled the dial must wait for the handshake,
// classify its failure as transient, and give up with the typed error
// after the configured attempts.
func TestDialRetryHandshakeFailure(t *testing.T) {
	garbagePeer := func(t *testing.T) string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				c.Write([]byte("definitely not a TLS record stream"))
				c.Close()
			}
		}()
		return l.Addr().String()
	}
	for _, tc := range []struct {
		proto   Protocol
		network string
		peer    func(*testing.T) string
		timeout time.Duration
	}{
		{ProtoUTLSTCP, "tcp", garbagePeer, 2 * time.Second},
		{ProtoUTLSuTCP, "udp", silentUTCPPeer, 300 * time.Millisecond},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			_, err := DialConfig{
				Timeout: tc.timeout,
				Retry: RetryConfig{
					Attempts:    2,
					BaseBackoff: time.Millisecond,
				},
			}.Dial(tc.proto, tc.network, tc.peer(t))
			if err == nil {
				t.Fatalf("handshake against a peer that never completes it succeeded")
			}
			var re *DialRetryError
			if !errors.As(err, &re) {
				t.Fatalf("error %T (%v), want *DialRetryError", err, err)
			}
			if re.Attempts != 2 {
				t.Fatalf("give-up after %d attempts, want 2", re.Attempts)
			}
		})
	}
}

// TestDialRetrySimOnlyNoRetry asserts configuration errors bypass the
// retry loop entirely.
func TestDialRetrySimOnlyNoRetry(t *testing.T) {
	start := time.Now()
	_, err := DialConfig{Retry: RetryConfig{
		Attempts:    5,
		BaseBackoff: 200 * time.Millisecond,
	}}.Dial(ProtoUCOBSuTCP, "tcp", "127.0.0.1:1")
	if !errors.Is(err, ErrSimOnly) {
		t.Fatalf("error = %v, want ErrSimOnly", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("configuration error entered the retry loop (%v)", d)
	}
}
