//go:build linux

package minion

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// testRaiseFDs lifts RLIMIT_NOFILE toward need and returns the usable
// soft limit. Both sides of every loopback connection live in this
// process (two sockets each), so a 10k-connection test wants ~20k
// descriptors; CI runners and dev boxes commonly boot with a 1024 soft
// limit under a much higher hard limit, which an unprivileged process
// may always raise to.
func testRaiseFDs(need uint64) uint64 {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 1024
	}
	if lim.Cur >= need {
		return lim.Cur
	}
	try := lim
	try.Cur = need
	if try.Max < need {
		try.Max = need // only root / CAP_SYS_RESOURCE may grow the hard limit
	}
	if syscall.Setrlimit(syscall.RLIMIT_NOFILE, &try) == nil {
		return try.Cur
	}
	if lim.Max > lim.Cur {
		try = lim
		try.Cur = lim.Max
		if syscall.Setrlimit(syscall.RLIMIT_NOFILE, &try) == nil {
			return try.Cur
		}
	}
	return lim.Cur
}

// TestPollEcho10k is the c10k smoke proof for the readiness-driven
// substrate: ten thousand concurrent connections multiplexed over a
// handful of poll-mode loops per side, every connection's echoes
// arriving strictly in order, with the process's goroutine count pinned
// — independent of the connection count. Scaled down under the race
// detector and to the fd budget the environment actually grants;
// skipped under -short.
func TestPollEcho10k(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale real-socket test")
	}
	nConns := 10000
	if raceEnabled {
		nConns = 2048 // race shadow memory makes 10k conns pathological
	}
	const perConn = 4
	const loops = 4

	// Fit the connection count to the fd budget: 2 fds per loopback
	// connection (both endpoints in-process) plus runtime headroom.
	soft := testRaiseFDs(uint64(2*nConns + 512))
	if budget := (int(soft) - 512) / 2; budget < nConns {
		if budget < 512 {
			t.Skipf("RLIMIT_NOFILE soft limit %d leaves room for only %d conns", soft, budget)
		}
		t.Logf("fd limit %d clamps the test to %d conns (wanted %d)", soft, budget, nConns)
		nConns = budget
	}

	sg := NewLoopGroup(loops)
	defer sg.Close()
	ln, err := ListenConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: sg}.Listen(ProtoUCOBSTCP, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()

	var srvMu sync.Mutex
	var srvConns []Conn
	defer func() {
		srvMu.Lock()
		defer srvMu.Unlock()
		for _, c := range srvConns {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			srvMu.Lock()
			srvConns = append(srvConns, c)
			srvMu.Unlock()
			c.OnMessage(func(msg []byte) { c.Send(msg, Options{}) })
		}
	}()

	cg := NewLoopGroup(loops)
	defer cg.Close()
	dc := DialConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: cg}

	// Goroutine baseline: everything structural (groups, loops, pollers,
	// accept plumbing) exists by now; only the dials follow.
	gBase := runtime.NumGoroutine()

	type client struct {
		c    Conn
		next atomic.Int32 // expected echo sequence number
	}
	clients := make([]client, nConns)
	defer func() {
		for i := range clients {
			if clients[i].c != nil {
				clients[i].c.Close()
			}
		}
	}()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 128)
	var dialErr atomic.Value
	for i := range clients {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			c, err := dc.Dial(ProtoUCOBSTCP, "tcp", ln.Addr().String())
			if err != nil {
				dialErr.Store(fmt.Errorf("dial %d: %w", i, err))
				return
			}
			clients[i].c = c
		}(i)
	}
	wg.Wait()
	if err, ok := dialErr.Load().(error); ok {
		t.Fatal(err)
	}

	// The load-bearing claim: goroutine count at full load is a property
	// of the loop count, not the connection count. The slack absorbs
	// runtime/test scaffolding (timers, the accept goroutine, stragglers
	// from the dial pool), not per-connection growth — at 10k conns even
	// one goroutine per hundred connections would blow through it.
	gFull := runtime.NumGoroutine()
	if gFull > gBase+32 {
		t.Errorf("goroutines grew %d -> %d across %d dials: per-connection goroutines in poll mode", gBase, gFull, nConns)
	}

	// Strict per-connection ordering: each echo must carry exactly the
	// next sequence number for that connection, and each arrival releases
	// the next send.
	var done sync.WaitGroup
	done.Add(nConns)
	var failed atomic.Value
	for i := range clients {
		i := i
		cl := &clients[i]
		cl.c.OnMessage(func(msg []byte) {
			seq := cl.next.Load()
			want := fmt.Sprintf("c%d-m%d", i, seq)
			if string(msg) != want {
				failed.Store(fmt.Errorf("conn %d: echo %q, want %q (ordering broken)", i, msg, want))
				done.Done()
				return
			}
			cl.next.Store(seq + 1)
			if seq+1 == perConn {
				done.Done()
				return
			}
			cl.c.Send([]byte(fmt.Sprintf("c%d-m%d", i, seq+1)), Options{})
		})
	}
	for i := range clients {
		if err := clients[i].c.Send([]byte(fmt.Sprintf("c%d-m0", i)), Options{}); err != nil {
			t.Fatalf("conn %d: seed send: %v", i, err)
		}
	}
	waitDone := make(chan struct{})
	go func() { done.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(4 * time.Minute):
		t.Fatalf("timed out waiting for %d conns x %d echoes", nConns, perConn)
	}
	if err, ok := failed.Load().(error); ok {
		t.Fatal(err)
	}
}
