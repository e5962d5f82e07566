package minion

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestShardedAcceptDistribution exercises the SO_REUSEPORT sharded
// accept path end to end: a poll-mode listener owns one listening
// socket per loop, the kernel hashes incoming 4-tuples across them, and
// every accepted connection stays pinned to the loop whose listener
// took it. With 2048 dials over 4 loops the kernel's hash is ~binomial
// (σ ≈ 20 connections), so a ±20% per-shard tolerance (±102) sits past
// 5σ — statistically safe, yet tight enough to catch a shard that is
// dead or double-counted. Off Linux (no pollers) the listener falls back
// to the single-socket least-loaded path and only the fallback behavior
// is asserted.
func TestShardedAcceptDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const loops = 4
	nDials := 2048
	if raceEnabled {
		// Still ~4σ at ±20% with 1024; the race detector makes each
		// accept/attach an order of magnitude pricier.
		nDials = 1024
	}

	sg := NewLoopGroup(loops)
	defer sg.Close()
	ln, err := ListenConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: sg}.Listen(ProtoUCOBSTCP, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	if !ln.Sharded() {
		// Portable fallback (non-Linux or poll unavailable): the listener
		// must still accept, just without per-loop shards.
		t.Logf("listener not sharded on this platform; exercising fallback only")
		nDials = 32
	}

	cg := NewLoopGroup(loops)
	defer cg.Close()
	dc := DialConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: cg}

	// Accept everything the dials produce; accepted conns must stay open
	// so the server group's per-loop loads remain observable.
	var accepted []Conn
	acceptDone := make(chan error, 1)
	go func() {
		for i := 0; i < nDials; i++ {
			c, err := ln.Accept()
			if err != nil {
				acceptDone <- fmt.Errorf("Accept %d: %w", i, err)
				return
			}
			accepted = append(accepted, c)
		}
		acceptDone <- nil
	}()
	defer func() {
		for _, c := range accepted {
			c.Close()
		}
	}()

	var dialers []Conn
	var mu sync.Mutex
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range dialers {
			c.Close()
		}
	}()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64)
	errs := make(chan error, nDials)
	for i := 0; i < nDials; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			c, err := dc.Dial(ProtoUCOBSTCP, "tcp", ln.Addr().String())
			if err != nil {
				errs <- fmt.Errorf("dial %d: %w", i, err)
				return
			}
			mu.Lock()
			dialers = append(dialers, c)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := <-acceptDone; err != nil {
		t.Fatal(err)
	}

	if ln.Sharded() {
		accepts := ln.ShardAccepts()
		if len(accepts) != loops {
			t.Fatalf("ShardAccepts() has %d shards, want %d", len(accepts), loops)
		}
		var sum uint64
		for _, n := range accepts {
			sum += n
		}
		if sum != uint64(nDials) {
			t.Fatalf("shard accepts %v sum to %d, want %d", accepts, sum, nDials)
		}
		// Per-shard distribution: the kernel's SO_REUSEPORT hash must
		// land every shard within ±20% of the even split.
		mean := float64(nDials) / float64(loops)
		for i, n := range accepts {
			dev := float64(n) - mean
			if dev < 0 {
				dev = -dev
			}
			if dev > 0.20*mean {
				t.Errorf("shard %d took %d accepts, beyond ±20%% of the even split %.0f (all: %v)", i, n, mean, accepts)
			}
		}
		// No loop migration: the server group's per-loop attached
		// connection counts must equal each shard's accept count exactly
		// — an accepted connection lives on the loop whose listener
		// accepted it, never rebalanced.
		loads := sg.Loads()
		for i := range accepts {
			if uint64(loads[i]) != accepts[i] {
				t.Errorf("loop %d has %d attached conns but its shard accepted %d (loads %v, accepts %v): connection migrated loops",
					i, loads[i], accepts[i], loads, accepts)
			}
		}
	} else {
		if got := ln.ShardAccepts(); got != nil {
			t.Errorf("ShardAccepts() = %v on an unsharded listener, want nil", got)
		}
	}

	// Graceful close drains every per-loop listener: Accept unblocks with
	// an error and fresh connection attempts are refused once the shard
	// teardowns have run.
	if err := ln.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("Accept after Close succeeded, want error")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := dc.Dial(ProtoUCOBSTCP, "tcp", ln.Addr().String())
		if err != nil {
			break // refused: all shard listeners are gone
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("dials still succeed 10s after listener Close: shard listener leaked")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
