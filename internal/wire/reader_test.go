package wire

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"minion/internal/buf"
)

// tcpDelivery is one OnReadable callback as a hand-off test sees it.
type tcpDelivery struct {
	gid       int64 // goroutine that ran the callback
	n         int   // bytes in the chunk just delivered
	afterBusy bool  // ran after the busy callback let go of the loop
}

// eventGoid returns the id of c's event goroutine: Post never runs fn on
// the caller.
func eventGoid(c *Conn) int64 {
	ch := make(chan int64, 1)
	c.Post(func() { ch <- testGoid() })
	return <-ch
}

// TestTCPReadHandOffInlineWhenIdle: on a dedicated loop the reader
// goroutine delivers a short read itself when the loop is idle; while a
// callback holds the loop, later chunks queue on the lane and the event
// goroutine delivers them in order behind it; a read that fills the whole
// chunk is always posted, so the event goroutine delivers it while the
// reader goes back to the socket.
func TestTCPReadHandOffInlineWhenIdle(t *testing.T) {
	a, b := pipePair(t, Config{NoDelay: true})
	var (
		mu        sync.Mutex
		log       []tcpDelivery
		data      []byte
		busyDone  bool // loop-confined
		consuming = true
	)
	// drainLocked consumes everything queued on b. Loop only, mu held.
	drainLocked := func() {
		p := make([]byte, readChunk)
		for {
			m, _ := b.Read(p)
			if m == 0 {
				return
			}
			data = append(data, p[:m]...)
		}
	}
	// setBudget changes b's receive budget under the lock the read driver
	// checks it under.
	setBudget := func(n int) {
		b.rmu.Lock()
		b.cfg.RecvBufBytes = n
		b.rmu.Unlock()
	}
	b.Do(func() {
		b.OnReadable(func() {
			d := tcpDelivery{gid: testGoid(), afterBusy: busyDone}
			if k := len(b.recvQ); k > 0 {
				d.n = b.recvQ[k-1].Len()
			}
			mu.Lock()
			defer mu.Unlock()
			if d.n > 0 {
				log = append(log, d)
			}
			if consuming {
				drainLocked()
			}
		})
	})
	ev := eventGoid(b)
	send := func(p []byte) {
		t.Helper()
		ok := false
		a.Do(func() { _, err := a.Write(p); ok = err == nil })
		if !ok {
			t.Fatalf("send of %d bytes failed", len(p))
		}
	}
	// waitData waits for the receiver to have consumed n bytes and returns
	// the deliveries since the last call.
	waitData := func(n int) []tcpDelivery {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := len(data)
			mu.Unlock()
			if got >= n {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("received %d of %d bytes", got, n)
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		out := log
		log = nil
		return out
	}
	total := 0

	// Idle: a short read is delivered on the reader goroutine. A loaded
	// host may leave the event goroutine unparked for a moment, so allow
	// a few tries.
	inline := false
	for try := 0; try < 5 && !inline; try++ {
		time.Sleep(20 * time.Millisecond)
		send([]byte("x"))
		total++
		for _, d := range waitData(total) {
			if d.gid == testGoid() {
				t.Fatal("chunk delivered on the test goroutine")
			}
			inline = inline || d.gid != ev
		}
	}
	if !inline {
		t.Fatal("short read on an idle loop never delivered on the reader goroutine")
	}

	// Busy: chunks read while a callback holds the loop queue behind it
	// and arrive in order on the event goroutine.
	entered, release := make(chan struct{}), make(chan struct{})
	b.Post(func() { close(entered); <-release; busyDone = true })
	<-entered
	for _, s := range []string{"1", "2", "3"} {
		send([]byte(s))
		time.Sleep(5 * time.Millisecond)
	}
	// The reader charges each chunk to the receive budget just before its
	// hand-off: once all three bytes are charged, a beat more leaves them
	// queued, not waiting to be handed to a loop that is idle again.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.rmu.Lock()
		charged := b.rBudget
		b.rmu.Unlock()
		if charged >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader charged %d of 3 bytes", charged)
		}
	}
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	early := len(data) - total
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d bytes delivered while another callback held the loop", early)
	}
	close(release)
	total += 3
	for _, d := range waitData(total) {
		if d.gid != ev || !d.afterBusy {
			t.Fatalf("busy loop: chunk delivered on goroutine %d (event goroutine %d), after the busy callback: %v", d.gid, ev, d.afterBusy)
		}
	}
	mu.Lock()
	if got := string(data[total-3:]); got != "123" {
		t.Fatalf("busy loop: chunks arrived as %q, want \"123\"", got)
	}
	mu.Unlock()

	// Full reads: with consumption off the receive budget fills and the
	// reader stalls while the kernel queues the rest; each credit then
	// lets it read one whole chunk out of a full socket, which must be
	// posted even though the loop is idle by then.
	b.Do(func() {
		consuming = false
		setBudget(1)
	})
	bulk := bytes.Repeat([]byte("0123456789abcdef"), 8*readChunk/16)
	send(bulk)
	full := 0
	for round := 0; round < 8 && full < 4; round++ {
		time.Sleep(10 * time.Millisecond)
		b.Do(func() {
			mu.Lock()
			drainLocked()
			mu.Unlock()
		})
		time.Sleep(10 * time.Millisecond)
		mu.Lock()
		for _, d := range log {
			if d.n == readChunk {
				full++
				if d.gid != ev {
					mu.Unlock()
					t.Fatalf("full %d-byte read delivered on goroutine %d, not the event goroutine %d", readChunk, d.gid, ev)
				}
			}
		}
		log = nil
		mu.Unlock()
	}
	if full == 0 {
		t.Fatal("no read filled the chunk")
	}
	total += len(bulk)
	b.Do(func() {
		consuming = true
		setBudget(256 * 1024)
		mu.Lock()
		drainLocked() // the credit resumes the stalled reader
		mu.Unlock()
	})
	waitData(total)
	mu.Lock()
	ok := bytes.Equal(data[total-len(bulk):], bulk)
	mu.Unlock()
	if !ok {
		t.Fatal("bulk transfer corrupted")
	}
}

// TestTCPReadHandOffTeardownFromInline: OnReadable may Close or Abort its
// own connection from a delivery the reader goroutine runs inline. Either
// must finish without waiting on the reader it runs on, return every
// goroutine and leave the buffer pool balanced.
func TestTCPReadHandOffTeardownFromInline(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(c *Conn)
	}{
		{"close", func(c *Conn) { c.Close() }},
		{"abort", func(c *Conn) { c.Abort(ErrTimeout) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroBefore := runtime.NumGoroutine()
			bufBefore := buf.Stats()
			inline := false
			for try := 0; try < 5 && !inline; try++ {
				a, b := pipePair(t, Config{NoDelay: true})
				stopped := make(chan int64, 1)
				b.Do(func() {
					b.OnReadable(func() {
						if len(b.recvQ) == 0 {
							return
						}
						select {
						case stopped <- testGoid():
							tc.stop(b)
						default:
						}
					})
				})
				ev := eventGoid(b)
				time.Sleep(20 * time.Millisecond) // let the loop go idle
				a.Do(func() { a.Write([]byte("x")) })
				select {
				case gid := <-stopped:
					inline = gid != ev
				case <-time.After(5 * time.Second):
					t.Fatal("no delivery")
				}
				a.Close()
				b.Close() // idempotent
			}
			if !inline {
				t.Fatal("delivery on an idle loop never ran on the reader goroutine")
			}
			waitGoroutines(t, goroBefore)
			waitBufBalance(t, bufBefore)
		})
	}
}
