package wire

import (
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/buf"
)

// UDP chaos: the FaultHooks seam covers the socket core's one receive
// and one send path — sendmmsg/recvmmsg batches on Linux, a batch of one
// elsewhere — so error storms exercise the drop and retry policies with
// the pool ledger watched for leaks.

// udpChaosPair builds two shim endpoints aimed at each other.
func udpChaosPair(t *testing.T) (*UDPConn, *UDPConn) {
	t.Helper()
	ncA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	ncB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	a := NewUDPConn(ncA, ncB.LocalAddr())
	b := NewUDPConn(ncB, ncA.LocalAddr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestChaosUDPFaultStorm drives a send-drop plus receive-EAGAIN storm
// through the shim: datagrams sent during the storm drop (UDP's lossy
// contract — their pooled buffers must still return), the receiver's
// injected wakeups retry instead of killing the reader, and traffic
// flows again the moment the hooks lift.
func TestChaosUDPFaultStorm(t *testing.T) {
	chaosCheck(t)
	a, b := udpChaosPair(t)

	var got atomic.Int64
	b.OnMessage(func(msg []byte) {
		if len(msg) == 1 && msg[0] == 'k' {
			got.Add(1)
		}
	})

	var reads atomic.Uint64
	SetFaultHooks(&FaultHooks{
		Write: func(size int) (int, error) { return 0, syscall.ENOBUFS },
		Read: func(size int) (int, error) {
			// Every other receive is a spurious wakeup; the rest pass.
			if reads.Add(1)%2 == 0 {
				return 0, syscall.EAGAIN
			}
			return 0, nil
		},
	})

	var storm atomic.Int64
	for i := 0; i < 20; i++ {
		if err := a.TrySendResult([]byte{'k'}, func(err error) {
			if err == nil {
				storm.Add(1)
			}
		}); err != nil {
			t.Fatalf("TrySendResult during storm: %v", err)
		}
	}
	// Let the storm-phase flushes happen (and drop) before lifting.
	deadline := time.Now().Add(2 * time.Second)
	for storm.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if storm.Load() != 20 {
		t.Fatalf("storm-phase completions = %d/20", storm.Load())
	}
	if n := got.Load(); n != 0 {
		t.Fatalf("%d datagrams delivered through a total send-fault storm", n)
	}

	SetFaultHooks(nil)
	for i := 0; i < 20; i++ {
		if err := a.Send([]byte{'k'}); err != nil {
			t.Fatalf("Send after storm: %v", err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for got.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() < 20 {
		t.Fatalf("post-storm deliveries = %d/20 (reader did not survive the storm)", got.Load())
	}
}

// TestChaosUDPSendOneFault pins the one send path's seam directly: an
// injected fault on a single queued datagram must release the buffer and
// send nothing.
func TestChaosUDPSendOneFault(t *testing.T) {
	chaosCheck(t)
	a, b := udpChaosPair(t)
	var got atomic.Int64
	b.OnMessage(func(msg []byte) { got.Add(1) })
	sendOne := func(msg string) {
		a.Do(func() { a.send(buf.From([]byte(msg)), a.remote); a.flush() })
	}

	before := ReadIOStats()
	SetFaultHooks(&FaultHooks{Write: func(size int) (int, error) { return 0, syscall.ENOBUFS }})
	sendOne("dropped")
	SetFaultHooks(nil)
	if d := ReadIOStats().UDPSendCalls - before.UDPSendCalls; d != 0 {
		t.Fatalf("faulted send issued %d syscalls", d)
	}

	sendOne("through")
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got.Load() != 1 {
		t.Fatalf("deliveries = %d, want exactly the unfaulted datagram", got.Load())
	}
}
