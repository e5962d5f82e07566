package wire

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
)

// pipePair returns two wire Conns joined by a real loopback TCP socket.
func pipePair(t *testing.T, cfg Config) (*Conn, *Conn) {
	t.Helper()
	return pipePairCfg(t, cfg, cfg)
}

// pipePairCfg is pipePair with distinct dial- and accept-side configs.
func pipePairCfg(t *testing.T, cfgA, cfgB Config) (*Conn, *Conn) {
	t.Helper()
	ln, err := Listen("tcp", "127.0.0.1:0", cfgB)
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
	a, err := Dial("tcp", ln.Addr().String(), cfgA)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("Accept: %v", r.err)
	}
	t.Cleanup(func() { a.Close(); r.c.Close() })
	return a, r.c
}

// collect drains n bytes from c (on its loop) into the returned slice.
func collect(t *testing.T, c *Conn, n int) []byte {
	t.Helper()
	got := make([]byte, 0, n)
	done := make(chan struct{})
	c.Do(func() {
		finished := false // the callback can fire once more after the close
		finish := func() {
			if !finished {
				finished = true
				c.OnReadable(nil)
				close(done)
			}
		}
		var read func()
		read = func() {
			if finished {
				return
			}
			p := make([]byte, 4096)
			for len(got) < n {
				m, err := c.Read(p)
				if m > 0 {
					got = append(got, p[:m]...)
					continue
				}
				if err == tcp.ErrWouldBlock {
					return // wait for the next readable callback
				}
				if err != nil {
					t.Errorf("Read: %v", err)
					finish()
					return
				}
			}
			finish()
		}
		c.OnReadable(read)
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out collecting %d bytes (got %d)", n, len(got))
	}
	return got
}

func TestStreamRoundTrip(t *testing.T) {
	a, b := pipePair(t, Config{NoDelay: true})
	msg := bytes.Repeat([]byte("wire-stream-"), 1000)
	go func() {
		a.Do(func() {
			if n, err := a.Write(msg); err != nil || n != len(msg) {
				t.Errorf("Write: n=%d err=%v", n, err)
			}
		})
	}()
	got := collect(t, b, len(msg))
	if !bytes.Equal(got, msg) {
		t.Fatalf("stream corrupted: got %d bytes, want %d", len(got), len(msg))
	}
}

func TestWriteMsgBufOwnershipAndBackpressure(t *testing.T) {
	a, b := pipePair(t, Config{SendBufBytes: 8 * 1024})
	// Fill beyond the send budget: WriteMsgBuf must refuse with
	// ErrWouldBlock rather than queueing unboundedly.
	sent := 0
	deadline := time.Now().Add(5 * time.Second)
	for sent < 64*1024 {
		if time.Now().After(deadline) {
			t.Fatal("send stalled")
		}
		bb := buf.Get(4 * 1024)
		for i := range bb.Bytes() {
			bb.Bytes()[i] = byte(sent / 4096)
		}
		var err error
		a.Do(func() { _, err = a.WriteMsgBuf(bb, tcp.WriteOptions{}) })
		switch err {
		case nil:
			sent += 4 * 1024
		case tcp.ErrWouldBlock:
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("WriteMsgBuf: %v", err)
		}
	}
	got := collect(t, b, 64*1024)
	for i, x := range got {
		if x != byte(i/4096) {
			t.Fatalf("byte %d = %#x, want %#x", i, x, byte(i/4096))
		}
	}
}

func TestGracefulCloseDeliversEOF(t *testing.T) {
	a, b := pipePair(t, Config{})
	msg := []byte("last words")
	a.Do(func() { a.Write(msg) })
	a.Close()
	got := collect(t, b, len(msg))
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// After the data, Read must surface EOF.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		b.Do(func() { _, err = b.Read(make([]byte, 16)) })
		if err == io.EOF {
			break
		}
		if err != tcp.ErrWouldBlock {
			t.Fatalf("Read after close: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("EOF never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestStreamReportsNoUnorderedSupport(t *testing.T) {
	a, _ := pipePair(t, Config{})
	a.Do(func() {
		if a.Unordered() {
			t.Error("kernel TCP claims SO_UNORDERED")
		}
		if a.SegmentCapacity() != 0 {
			t.Error("kernel TCP claims boundary preservation")
		}
		if _, err := a.ReadUnordered(); err != tcp.ErrNotUnordered {
			t.Errorf("ReadUnordered err = %v, want ErrNotUnordered", err)
		}
	})
}

func TestUDPShimRoundTrip(t *testing.T) {
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
	defer a.Close()
	defer b.Close()

	gotB := make(chan []byte, 16)
	b.OnMessage(func(msg []byte) {
		gotB <- append([]byte(nil), msg...) // delivery buffers recycle after return
	})
	for i := 0; i < 4; i++ {
		if err := a.Send([]byte{byte(i), 0xAB}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	seen := map[byte]bool{}
	timeout := time.After(5 * time.Second)
	for len(seen) < 4 {
		select {
		case m := <-gotB:
			if len(m) != 2 || m[1] != 0xAB {
				t.Fatalf("corrupt datagram %x", m)
			}
			seen[m[0]] = true
		case <-timeout:
			t.Fatalf("received %d/4 datagrams (UDP loss on loopback is not expected)", len(seen))
		}
	}
	if st := a.Stats(); st.Sent != 4 {
		t.Fatalf("sender stats: %+v", st)
	}
}

// TestUDPShimFlushesPreRegistrationDatagrams: datagrams arriving before
// OnMessage is registered must reach the callback on registration.
func TestUDPShimFlushesPreRegistrationDatagrams(t *testing.T) {
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
	defer a.Close()
	defer b.Close()

	if err := a.Send([]byte("early-bird")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// Wait until the datagram is queued on b (no callback registered yet).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var pending int
		b.Do(func() { pending = b.u.Pending() })
		if pending > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("datagram never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	got := make(chan string, 1)
	b.OnMessage(func(msg []byte) { got <- string(msg) })
	select {
	case m := <-got:
		if m != "early-bird" {
			t.Fatalf("flushed %q", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pre-registration datagram was not flushed on OnMessage")
	}
}
