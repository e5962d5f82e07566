package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minion"
	"minion/internal/wire"
)

// connScaleResult is the machine-readable record per connection count:
// how the real-socket substrate behaves as loopback connections scale
// from one to thousands. Written as BENCH_<conns>.json (its own
// directory, so stack-index BENCH_<n>.json files never collide); the UDP
// variant writes BENCH_udp_<conns>.json.
type connScaleResult struct {
	Conns       int    `json:"conns"`
	Mode        string `json:"mode"`  // "poll", "dedicated", or "group" (group loops without pollers)
	Loops       int    `json:"loops"` // loops per side (client and server group each; 0 in dedicated mode)
	Procs       int    `json:"procs"` // GOMAXPROCS during the run
	Stack       string `json:"stack"`
	MsgsPerConn int    `json:"msgs_per_conn"`
	MsgBytes    int    `json:"msg_bytes"`
	Window      int    `json:"window"` // self-clocked datagrams in flight per conn

	// Accept-path shape and distribution. AcceptSharded reports the
	// SO_REUSEPORT per-loop-listener path; AcceptPerLoop is how many
	// connections each loop's listener took (the kernel's hash
	// distribution when sharded, the least-loaded assignment otherwise),
	// and AcceptImbalancePct is the worst per-loop deviation from a
	// perfectly even split, in percent (0 = exactly even).
	AcceptSharded      bool     `json:"accept_sharded"`
	AcceptPerLoop      []uint64 `json:"accept_per_loop,omitempty"`
	AcceptImbalancePct float64  `json:"accept_imbalance_pct"`
	// ServerLoads is the server group's per-loop attached-connection
	// counts at full load — pinned-equal to AcceptPerLoop when sharded.
	ServerLoads []int `json:"server_loads,omitempty"`
	// Accept-path robustness counters over the whole run (dial storm
	// included): transient accept failures absorbed by the retry loop,
	// and EMFILE/ENFILE backoff sleeps taken. Nonzero backoffs on a
	// healthy host mean the fd budget is too tight for the sweep.
	AcceptErrors   uint64 `json:"accept_errors"`
	AcceptBackoffs uint64 `json:"accept_backoffs"`
	// DrainMs is the wall time of a graceful client-group Shutdown after
	// the measured echoes: queued writes flushed, close sequences sent,
	// sockets closed. 0 in dedicated mode (no group to drain).
	DrainMs float64 `json:"drain_ms"`

	Iterations        int     `json:"iterations"` // total echo round trips
	NsPerOp           float64 `json:"ns_per_op"`  // wall time per round trip
	AllocsPerOp       float64 `json:"allocs_per_op"`
	Goroutines        int     `json:"goroutines"` // sampled at full load
	GoroutinesPerConn float64 `json:"goroutines_per_conn"`

	// Syscall economics, from wire.IOStats deltas over the measured
	// interval. Write calls are vectored writes (≥1 syscall each, ==1
	// except under partial-write pressure), so per-datagram values are
	// tight lower bounds; the datagram denominator counts both directions
	// on both sides (each round trip = 2 datagrams written and 2 read
	// process-wide). Poll wakeups are epoll_wait returns carrying events
	// (zero outside poll mode).
	WriteSyscallsPerDatagram float64 `json:"write_syscalls_per_datagram"`
	ReadSyscallsPerDatagram  float64 `json:"read_syscalls_per_datagram"`
	WriteBufsPerCall         float64 `json:"write_bufs_per_call"` // writev coalescing ratio
	PollWakeupsPerDatagram   float64 `json:"poll_wakeups_per_datagram"`

	// UDP variant only: the sendmmsg/recvmmsg batching economics.
	UDPSendSyscallsPerDatagram float64 `json:"udp_send_syscalls_per_datagram,omitempty"`
	UDPRecvSyscallsPerDatagram float64 `json:"udp_recv_syscalls_per_datagram,omitempty"`
	UDPDatagramsPerSendCall    float64 `json:"udp_datagrams_per_send_call,omitempty"`
	UDPDatagramsPerRecvCall    float64 `json:"udp_datagrams_per_recv_call,omitempty"`
}

// runConnScale drives the real-socket substrate at each connection count
// and writes one BENCH_<conns>.json per count into dir.
func runConnScale(args []string) error {
	fs := flag.NewFlagSet("connscale", flag.ExitOnError)
	dir := fs.String("benchdir", filepath.Join("bench-out", "connscale"), "output directory for BENCH_<conns>.json")
	connsList := fs.String("conns", "1,4,16,64,256,1024", "comma-separated connection counts (up to 131072)")
	msgBytes := fs.Int("msgbytes", 200, "datagram payload size")
	loops := fs.Int("loops", 0, "event loops per side (0 = GOMAXPROCS)")
	window := fs.Int("window", 16, "self-clocked datagrams in flight per connection")
	totalOps := fs.Int("ops", 65536, "target total round trips per count (min 8 per conn)")
	mode := fs.String("mode", "poll", "loop mode: poll (group loops; reader/writer goroutines where the platform has no poller), dedicated")
	dedicated := fs.Bool("dedicated", false, "alias for -mode dedicated (a loop per connection)")
	procsList := fs.String("procs", "", "comma-separated GOMAXPROCS values to sweep (multi-core scaling); empty = current setting only")
	udp := fs.Bool("udp", false, "measure the UDP shim instead (sendmmsg/recvmmsg batching), writing BENCH_udp_<conns>.json")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering the whole sweep")
	memprofile := fs.String("memprofile", "", "write an allocation profile covering the whole sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		runtime.MemProfileRate = 1
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}
	if *dedicated {
		*mode = "dedicated"
	}
	switch *mode {
	case "poll", "dedicated":
	default:
		return fmt.Errorf("bad -mode %q (want poll or dedicated)", *mode)
	}
	var counts []int
	maxConns := 0
	for _, f := range strings.Split(*connsList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 || n > 131072 {
			return fmt.Errorf("bad -conns entry %q (want 1..131072)", f)
		}
		counts = append(counts, n)
		if n > maxConns {
			maxConns = n
		}
	}
	var procs []int
	if *procsList != "" {
		for _, f := range strings.Split(*procsList, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || p < 1 || p > 1024 {
				return fmt.Errorf("bad -procs entry %q", f)
			}
			procs = append(procs, p)
		}
	}
	// Fail fast, before any sockets open: the whole sweep needs its fd
	// budget — exactly two sockets per loopback connection (both ends
	// live in-process), plus headroom for pollers, listener shards and
	// profiles — or it will die mid-run in an EMFILE storm. raiseFDLimit
	// lifts the soft — and if permitted the hard — limit first.
	if err := raiseFDLimit(uint64(2*maxConns + 512)); err != nil {
		return fmt.Errorf("connscale: %d conns: %w", maxConns, err)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	runPoint := func(n, procOverride int) error {
		var res connScaleResult
		var err error
		if *udp {
			res, err = connScaleUDPOnce(n, *msgBytes, *window, *totalOps)
		} else {
			res, err = connScaleOnce(n, *loops, *msgBytes, *window, *totalOps, *mode)
		}
		if err != nil {
			return fmt.Errorf("%d conns: %w", n, err)
		}
		var name string
		switch {
		case *udp:
			name = fmt.Sprintf("BENCH_udp_%d.json", n)
		case procOverride > 0:
			name = fmt.Sprintf("BENCH_p%d_%d.json", procOverride, n)
		default:
			name = fmt.Sprintf("BENCH_%d.json", n)
		}
		path := filepath.Join(*dir, name)
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if *udp {
			fmt.Printf("%6d conns %10.0f ns/op %7.1f allocs/op %6d goroutines %6.3f snd-syscalls/dgram %6.1f dgrams/sendmmsg -> %s\n",
				res.Conns, res.NsPerOp, res.AllocsPerOp, res.Goroutines, res.UDPSendSyscallsPerDatagram, res.UDPDatagramsPerSendCall, path)
		} else {
			shard := "single"
			if res.AcceptSharded {
				shard = "sharded"
			}
			fmt.Printf("%6d conns [%s/%s p%d] %10.0f ns/op %7.1f allocs/op %6d goroutines %6.3f wr-syscalls/dgram %6.1f bufs/writev %6.3f wakeups/dgram %5.1f%% accept-imbalance %6.1fms drain -> %s\n",
				res.Conns, res.Mode, shard, res.Procs, res.NsPerOp, res.AllocsPerOp, res.Goroutines,
				res.WriteSyscallsPerDatagram, res.WriteBufsPerCall, res.PollWakeupsPerDatagram, res.AcceptImbalancePct, res.DrainMs, path)
		}
		return nil
	}
	if len(procs) == 0 {
		for _, n := range counts {
			if err := runPoint(n, 0); err != nil {
				return err
			}
		}
		return nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // restore on exit
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		for _, n := range counts {
			if err := runPoint(n, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func connScaleOnce(nConns, loops, msgBytes, window, totalOps int, mode string) (connScaleResult, error) {
	msgs := totalOps / nConns
	if msgs < 8 {
		msgs = 8
	}
	if window > msgs {
		window = msgs
	}
	loopCount := loops
	if loopCount <= 0 {
		loopCount = runtime.GOMAXPROCS(0)
	}
	lnLoops := loopCount
	dedicated := mode == "dedicated"
	if dedicated {
		lnLoops = 0 // per-connection loops on both sides
	}

	// Accept counters are read across the whole run — the dial storm is
	// exactly when accept-path stress (EMFILE backoffs, transient errors)
	// happens, well before the echo interval's ioBefore snapshot.
	ioStart := wire.ReadIOStats()

	// The server group is explicit (not listener-owned) so its per-loop
	// loads are observable next to the listener's accept distribution.
	var sg *minion.LoopGroup
	lcfg := minion.ListenConfig{TCPConfig: minion.TCPConfig{NoDelay: true}}
	if !dedicated {
		sg = minion.NewLoopGroup(lnLoops)
		defer sg.Close()
		lcfg.Group = sg
	}
	// Listen on the wildcard: past ~20k connections a single loopback
	// destination exhausts the ephemeral source-port range, so clients
	// spread their dials across 127.0.0.x aliases — each destination IP
	// gets its own 4-tuple space.
	ln, err := lcfg.Listen(minion.ProtoUCOBSTCP, "tcp", ":0")
	if err != nil {
		return connScaleResult{}, err
	}
	defer ln.Close()
	lnPort := ln.Addr().(*net.TCPAddr).Port
	dialDsts := 1 + nConns/20000
	dialAddr := func(i int) string {
		return fmt.Sprintf("127.0.0.%d:%d", 1+i%dialDsts, lnPort)
	}
	var srvMu sync.Mutex
	var srvConns []minion.Conn
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
			c.OnMessage(func(msg []byte) { c.Send(msg, minion.Options{}) })
		}
	}()

	dc := minion.DialConfig{TCPConfig: minion.TCPConfig{NoDelay: true}}
	resMode := "dedicated"
	if !dedicated {
		g := minion.NewLoopGroup(loopCount)
		defer g.Close()
		dc.Group = g
		resMode = "poll"
		if !g.Polled() {
			resMode = "group" // no poller on this platform
		}
	}

	type client struct {
		c        minion.Conn
		sent     atomic.Int64
		received atomic.Int64
	}
	// One arena allocation for all per-connection bookkeeping: at 100k
	// connections, per-client heap objects would make the harness itself
	// a measurable allocation and cache load.
	clients := make([]client, nConns)
	defer func() {
		for i := range clients {
			if clients[i].c != nil {
				clients[i].c.Close()
			}
		}
	}()
	// Dial with bounded parallelism so the listener backlog keeps up.
	var dialWG sync.WaitGroup
	dialSem := make(chan struct{}, 64)
	var dialErr atomic.Value
	for i := range clients {
		dialWG.Add(1)
		dialSem <- struct{}{}
		go func(i int) {
			defer dialWG.Done()
			defer func() { <-dialSem }()
			c, err := dc.Dial(minion.ProtoUCOBSTCP, "tcp", dialAddr(i))
			if err != nil {
				dialErr.Store(err)
				return
			}
			clients[i].c = c
		}(i)
	}
	dialWG.Wait()
	if err, ok := dialErr.Load().(error); ok {
		return connScaleResult{}, fmt.Errorf("dial: %w", err)
	}

	msg := make([]byte, msgBytes)
	var done sync.WaitGroup
	done.Add(nConns)
	for i := range clients {
		cl := &clients[i]
		cl.c.OnMessage(func([]byte) {
			n := cl.received.Add(1)
			switch {
			case n == int64(msgs):
				done.Done()
			case n > int64(msgs):
			default:
				// Self-clocked: each echo releases the next datagram, so
				// the in-flight window stays at `window` per connection and
				// bursts pile up naturally on the shared loops (the
				// batch-friendly load writev coalescing feeds on).
				if cl.sent.Add(1) <= int64(msgs) {
					cl.c.TrySend(msg, minion.Options{})
				}
			}
		})
	}

	runtime.GC()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	ioBefore := wire.ReadIOStats()
	t0 := time.Now()
	// Seed each connection's window; the echo stream self-clocks the rest.
	for i := range clients {
		cl := &clients[i]
		cl.sent.Store(int64(window))
		for j := 0; j < window; j++ {
			if err := cl.c.TrySend(msg, minion.Options{}); err != nil {
				return connScaleResult{}, fmt.Errorf("seed: %w", err)
			}
		}
	}
	goroutines := runtime.NumGoroutine() // sampled at full load
	accepts := ln.ShardAccepts()         // nil for a single-socket listener
	waitDone := make(chan struct{})
	go func() { done.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Minute):
		return connScaleResult{}, fmt.Errorf("timed out (%d conns)", nConns)
	}
	elapsed := time.Since(t0)
	ioAfter := wire.ReadIOStats()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	// Server loads are read after the run, when every accepted connection
	// has necessarily been attached (each one echoed its stream); sampling
	// earlier races the Accept loop's attach.
	var srvLoads []int
	if sg != nil {
		srvLoads = sg.Loads()
	}

	// Graceful drain, timed: the client group flushes every connection's
	// queue, sends the close sequences, and closes the sockets. The
	// deferred per-connection Closes then find nothing left to do.
	var drainMs float64
	if dc.Group != nil {
		dctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		t1 := time.Now()
		dc.Group.Shutdown(dctx)
		drainMs = float64(time.Since(t1).Nanoseconds()) / 1e6
		cancel()
	}

	ops := nConns * msgs // round trips
	dgrams := float64(2 * ops)
	resLoops := loopCount
	if dedicated {
		resLoops = 0
	}
	// Imbalance over the listener's own per-shard counters when sharded;
	// over the server group's attached-connection loads otherwise (the
	// least-loaded path has no per-listener counters to read).
	imbCounts := accepts
	if imbCounts == nil && len(srvLoads) > 0 {
		imbCounts = make([]uint64, len(srvLoads))
		for i, n := range srvLoads {
			imbCounts[i] = uint64(n)
		}
	}
	return connScaleResult{
		Conns:                    nConns,
		Mode:                     resMode,
		Loops:                    resLoops,
		Procs:                    runtime.GOMAXPROCS(0),
		AcceptSharded:            ln.Sharded(),
		AcceptPerLoop:            accepts,
		AcceptImbalancePct:       imbalancePct(imbCounts),
		ServerLoads:              srvLoads,
		AcceptErrors:             ioAfter.AcceptErrors - ioStart.AcceptErrors,
		AcceptBackoffs:           ioAfter.AcceptBackoffs - ioStart.AcceptBackoffs,
		DrainMs:                  drainMs,
		Stack:                    minion.ProtoUCOBSTCP.String(),
		MsgsPerConn:              msgs,
		MsgBytes:                 msgBytes,
		Window:                   window,
		Iterations:               ops,
		NsPerOp:                  float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp:              float64(memAfter.Mallocs-memBefore.Mallocs) / float64(ops),
		Goroutines:               goroutines,
		GoroutinesPerConn:        float64(goroutines) / float64(2*nConns), // both sides live in-process
		WriteSyscallsPerDatagram: float64(ioAfter.TCPWriteCalls-ioBefore.TCPWriteCalls) / dgrams,
		ReadSyscallsPerDatagram:  float64(ioAfter.TCPReadCalls-ioBefore.TCPReadCalls) / dgrams,
		WriteBufsPerCall: safeDiv(
			float64(ioAfter.TCPWriteBufs-ioBefore.TCPWriteBufs),
			float64(ioAfter.TCPWriteCalls-ioBefore.TCPWriteCalls)),
		PollWakeupsPerDatagram: float64(ioAfter.PollWakeups-ioBefore.PollWakeups) / dgrams,
	}, nil
}

// connScaleUDPOnce mirrors connScaleOnce over the UDP shim: nConns
// loopback socket pairs echo self-clocked windows, quantifying the
// sendmmsg/recvmmsg batch win as syscalls per datagram. The UDP shim has
// no shared-loop mode — each endpoint owns its loop and reader — so the
// interesting columns are the syscall ratios, not goroutines.
func connScaleUDPOnce(nConns, msgBytes, window, totalOps int) (connScaleResult, error) {
	msgs := totalOps / nConns
	if msgs < 8 {
		msgs = 8
	}
	if window > msgs {
		window = msgs
	}

	type upair struct {
		a, b     *wire.UDPConn
		sent     atomic.Int64
		received atomic.Int64
		finished atomic.Bool
	}
	pairs := make([]*upair, 0, nConns)
	defer func() {
		for _, p := range pairs {
			p.a.Close()
			p.b.Close()
		}
	}()
	for i := 0; i < nConns; i++ {
		ncA, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return connScaleResult{}, err
		}
		ncB, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			ncA.Close()
			return connScaleResult{}, err
		}
		p := &upair{
			a: wire.NewUDPConn(ncA, ncB.LocalAddr()),
			b: wire.NewUDPConn(ncB, ncA.LocalAddr()),
		}
		pairs = append(pairs, p)
	}

	msg := make([]byte, msgBytes)
	var done sync.WaitGroup
	done.Add(nConns)
	for _, p := range pairs {
		p := p
		// Echo side: reflect every datagram (Send from the shim's own
		// loop callback runs inline — reentrancy-safe Do).
		p.b.OnMessage(func(m []byte) { p.b.Send(m) })
		p.a.OnMessage(func([]byte) {
			n := p.received.Add(1)
			switch {
			case n == int64(msgs):
				if p.finished.CompareAndSwap(false, true) {
					done.Done()
				}
			case n > int64(msgs):
			default:
				if p.sent.Add(1) <= int64(msgs) {
					p.a.TrySend(msg)
				}
			}
		})
	}

	runtime.GC()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	ioBefore := wire.ReadIOStats()
	t0 := time.Now()
	for _, p := range pairs {
		p.sent.Store(int64(window))
		for j := 0; j < window; j++ {
			if err := p.a.TrySend(msg); err != nil {
				return connScaleResult{}, fmt.Errorf("seed: %w", err)
			}
		}
	}
	goroutines := runtime.NumGoroutine()
	waitDone := make(chan struct{})
	go func() { done.Wait(); close(waitDone) }()
	// UDP is lossy even on loopback: a dropped datagram shrinks a pair's
	// self-clocked window forever. The top-up pump re-injects one
	// datagram into any pair that made no progress over its interval, so
	// a rare drop costs latency, not liveness.
	pumpStop := make(chan struct{})
	defer close(pumpStop)
	go func() {
		last := make([]int64, len(pairs))
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pumpStop:
				return
			case <-tick.C:
				for i, p := range pairs {
					got := p.received.Load()
					if !p.finished.Load() && got == last[i] {
						p.sent.Add(1)
						p.a.TrySend(msg)
					}
					last[i] = got
				}
			}
		}
	}()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Minute):
		return connScaleResult{}, fmt.Errorf("timed out (%d conns)", nConns)
	}
	elapsed := time.Since(t0)
	ioAfter := wire.ReadIOStats()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	ops := nConns * msgs
	// Datagram denominator from the counters themselves: the pump can
	// inject extras beyond the nominal 2 per round trip.
	sendDgrams := float64(ioAfter.UDPSendDatagrams - ioBefore.UDPSendDatagrams)
	recvDgrams := float64(ioAfter.UDPRecvDatagrams - ioBefore.UDPRecvDatagrams)
	return connScaleResult{
		Conns:             nConns,
		Mode:              "dedicated",
		Loops:             0,
		Procs:             runtime.GOMAXPROCS(0),
		Stack:             "udp",
		MsgsPerConn:       msgs,
		MsgBytes:          msgBytes,
		Window:            window,
		Iterations:        ops,
		NsPerOp:           float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp:       float64(memAfter.Mallocs-memBefore.Mallocs) / float64(ops),
		Goroutines:        goroutines,
		GoroutinesPerConn: float64(goroutines) / float64(2*nConns),
		UDPSendSyscallsPerDatagram: safeDiv(
			float64(ioAfter.UDPSendCalls-ioBefore.UDPSendCalls), sendDgrams),
		UDPRecvSyscallsPerDatagram: safeDiv(
			float64(ioAfter.UDPRecvCalls-ioBefore.UDPRecvCalls), recvDgrams),
		UDPDatagramsPerSendCall: safeDiv(sendDgrams,
			float64(ioAfter.UDPSendCalls-ioBefore.UDPSendCalls)),
		UDPDatagramsPerRecvCall: safeDiv(recvDgrams,
			float64(ioAfter.UDPRecvCalls-ioBefore.UDPRecvCalls)),
	}, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalancePct is the worst per-loop deviation from a perfectly even
// split, in percent of the fair share: 0 = exactly even, 100 = some loop
// took double (or none of) its share. Zero-length or all-zero counts
// report 0.
func imbalancePct(counts []uint64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	var worst float64
	for _, c := range counts {
		d := float64(c) - mean
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return 100 * worst / mean
}
