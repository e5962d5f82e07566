package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"minion"
	"minion/internal/buf"
	"minion/internal/wire"
)

// A run measures its window in four blocks, each on a fresh connection,
// and reports the median of each end-to-end statistic over the blocks: a
// rare event confined to one block, such as a lost retransmission doubling
// the conferencing workload's RTO, then cannot decide the run's tail. A
// traced run reports the end-to-end figures of its untraced first half
// and traces the second. Set-ups are spread over rounds between the
// blocks, so setup_s samples the whole run rather than its first instant.

// options are one run's settings.
type options struct {
	seed    int64
	seconds time.Duration // measured window, summed over blocks
	trace   bool
	setups  int           // repeated set-ups; setup_s is their median
	warmup  time.Duration // traffic before each block's window opens
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the correctness tally and the metrics.
type report struct {
	attempted, failed, delivered int
	lost, duplicate, corrupt     int
	backlog                      bool
	setups, stalls               int // set-ups attempted; of those, stalled and retried
	samples                      uint64
	metrics                      map[string]metric
}

func (r *report) correct() bool {
	return !r.backlog && r.lost == 0 && r.duplicate == 0 && r.corrupt == 0
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// counters are the process-wide layer counters.
type counters struct {
	io       wire.IOStats
	buf      buf.PoolStats
	mallocs  uint64
	gcs      uint64
	udpBytes uint64
}

func readCounters(hook *lossHook) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{io: wire.ReadIOStats(), buf: buf.Stats(), mallocs: ms.Mallocs, gcs: uint64(ms.NumGC)}
	if hook != nil {
		c.udpBytes = hook.bytes.Load()
	}
	return c
}

// block is what one connection's measured window yielded.
type block struct {
	sent, failed, delivered, dup, corrupt int

	secs       float64 // window length, as observed by the generator
	attempts   int     // datagrams scheduled inside the window
	deliveries int     // datagrams delivered inside the window
	met        int     // window datagrams delivered within the deadline
	cpu        float64 // process CPU µs spent inside the window
	lat, late  *hist   // delivery latency; generator lateness

	traced     bool
	sendH, doH *hist       // traced: Conn.Send duration; Conn.Recv, one event-loop hand-off
	ctr        [2]counters // untraced blocks of a traced run: counters at window open and close
	cli, srv   connStats
}

// generator is the single load-generating goroutine of a block.
type generator struct {
	w        workload
	conn     minion.Conn
	in       *inputs
	base     time.Time
	from, to int64
	b        *block
	credits  chan int64
	stop     <-chan struct{}
	onOpen   func() // runs when the window opens
	onClose  func() // runs when the window closes

	buf    []byte
	seq    uint64
	cpu0   float64
	opened int64 // when the window opened, as observed
	mark   int   // 0 before the window, 1 inside, 2 after
}

var errStalled = errors.New("deliveries stalled")

func (g *generator) now() int64 { return int64(time.Since(g.base)) }

// advance opens and closes the window as time passes it.
func (g *generator) advance(now int64) {
	if g.mark == 0 && now >= g.from {
		g.mark = 1
		g.opened = now
		g.cpu0 = cpuMicros()
		g.onOpen()
	}
	if g.mark == 1 && now >= g.to {
		g.mark = 2
		g.b.cpu = cpuMicros() - g.cpu0
		g.b.secs = float64(now-g.opened) / 1e9
		g.onClose()
	}
}

func (g *generator) send(ts int64) {
	g.in.fill(g.buf, g.seq, ts)
	g.seq++
	inWin := ts >= g.from && ts < g.to
	if inWin {
		g.b.attempts++
	}
	traced := g.b.traced && inWin
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	err := g.conn.Send(g.buf, minion.Options{})
	if traced {
		g.b.sendH.add(time.Since(t0))
		if g.seq%8 == 0 {
			t1 := time.Now()
			g.conn.Recv()
			g.b.doH.add(time.Since(t1))
		}
	}
	if err != nil {
		g.b.failed++
		if g.credits != nil {
			g.credits <- g.now() // the datagram will never hand its credit back
		}
	}
}

// openLoop sends rate datagrams per second on a fixed schedule, each
// stamped with its due time, regardless of how the stack keeps up.
func (g *generator) openLoop() {
	period := int64(time.Second) / int64(g.w.rate)
	for due := int64(0); due < g.to; due += period {
		if d := due - g.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		now := g.now()
		g.advance(now)
		if due >= g.from {
			g.b.late.add(time.Duration(now - due))
		}
		g.send(due)
	}
	if d := g.to - g.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	g.advance(g.now())
}

// closedLoop keeps window datagrams in flight: each delivery hands a
// credit back, and the generator sends the next datagram on it.
func (g *generator) closedLoop() error {
	for i := 0; i < g.w.window; i++ {
		g.credits <- 0
	}
	for {
		var back int64
		select {
		case back = <-g.credits:
		case <-g.stop:
			return errStalled
		}
		now := g.now()
		g.advance(now)
		if g.mark == 2 {
			return nil
		}
		if g.mark == 1 {
			g.b.late.add(time.Duration(now - back))
		}
		g.send(now)
	}
}

// watchdog closes stop when deliveries make no progress for ioTimeout,
// and returns once done is closed.
func watchdog(t *tally, stop chan<- struct{}, done <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last, idleSince := t.delivered.Load(), time.Now()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			if cur := t.delivered.Load(); cur != last {
				last, idleSince = cur, time.Now()
			} else if time.Since(idleSince) > ioTimeout {
				close(stop)
				return
			}
		}
	}
}

// measure runs one block on session s and closes it: warm-up, the window,
// then a drain in which a reliable stack must deliver every accepted
// datagram.
func measure(w workload, s *session, in *inputs, hook *lossHook, o options, win time.Duration, traced bool) (*block, error) {
	b := &block{late: newHist(), traced: traced, sendH: newHist(), doH: newHist()}
	var credits chan int64
	if w.rate == 0 {
		credits = make(chan int64, w.window) // one slot per credit in flight
	}
	base := time.Now()
	from, to := int64(o.warmup), int64(o.warmup+win)
	t := newTally(in, base, from, to, credits)
	stop, done := make(chan struct{}), make(chan struct{})
	counting := o.trace && !traced
	g := &generator{
		w: w, conn: s.cli, in: in, base: base, from: from, to: to, b: b,
		credits: credits, stop: stop, buf: make([]byte, w.size),
		onOpen: func() {
			if hook != nil {
				hook.install()
			}
			if counting {
				b.ctr[0] = readCounters(hook)
			}
		},
		onClose: func() {
			if counting {
				b.ctr[1] = readCounters(hook)
			}
		},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		watchdog(t, stop, done)
	}()
	s.srv.OnMessage(t.onMessage)

	var err error
	if w.rate > 0 {
		g.openLoop()
	} else {
		err = g.closedLoop()
	}
	for want := int64(g.seq) - int64(b.failed); err == nil && t.delivered.Load() < want; {
		select {
		case <-stop:
			err = errStalled
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	wg.Wait()
	if hook != nil {
		wire.SetFaultHooks(nil)
	}
	var closeErr error
	b.cli, b.srv, closeErr = s.close()
	if err == nil {
		err = closeErr
	}
	// The tally is final: the receiving connection reached its terminal
	// state inside close.
	b.sent, b.delivered, b.dup, b.corrupt = int(g.seq), int(t.delivered.Load()), t.dup, t.corrupt
	b.deliveries, b.met = t.deliveries, t.met
	b.lat = t.lat
	return b, err
}

// setups runs k set-ups, closing each, and returns their timings and how
// many stalled.
func setups(w workload, cr *creds, k int) ([]setupTiming, int, error) {
	var ts []setupTiming
	stalls := 0
	for i := 0; i < k; i++ {
		s, st, n, err := w.setupRetry(cr)
		stalls += n
		if err != nil {
			return nil, stalls, err
		}
		ts = append(ts, st)
		if _, _, err := s.close(); err != nil {
			return nil, stalls, err
		}
	}
	return ts, stalls, nil
}

// run executes one workload: set-ups, the measured blocks, and the
// tally.
func run(w workload, o options) (*report, error) {
	cert, roots, err := minion.SelfSignedTLS(serverName, "127.0.0.1")
	if err != nil {
		return nil, fmt.Errorf("certificate: %w", err)
	}
	cr := &creds{cert: cert, pool: roots}
	in := newInputs(o.seed, w.size)
	var hook *lossHook
	if w.loss > 0 || (o.trace && w.network == "udp") {
		hook = newLossHook(w.loss, o.seed)
	}

	const n = 4
	var timings []setupTiming
	var blocks []*block
	stalls := 0
	for i := 0; i <= n; i++ {
		ts, k, err := setups(w, cr, (o.setups+i)/(n+1))
		stalls += k
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		timings = append(timings, ts...)
		if i == n {
			break
		}
		s, _, k, err := w.setupRetry(cr)
		stalls += k
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		b, err := measure(w, s, in, hook, o, o.seconds/n, o.trace && i >= n/2)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		blocks = append(blocks, b)
	}
	rss := maxRSSMB()

	r := &report{setups: len(timings) + stalls + n, stalls: stalls, metrics: map[string]metric{}}
	for _, b := range blocks {
		r.attempted += b.sent
		r.failed += b.failed
		r.delivered += b.delivered
		r.duplicate += b.dup
		r.corrupt += b.corrupt
	}
	r.lost = r.attempted - r.failed - r.delivered
	e2e := blocks
	if o.trace {
		e2e = blocks[:n/2]
	}
	all := pool(w, e2e)
	r.samples = all.samples
	if w.rate > 0 {
		// The stack fell behind the open loop if more than a second of
		// offered traffic was still undelivered when a window closed, or if
		// the generator itself ran a deadline late.
		for _, b := range e2e {
			r.backlog = r.backlog || b.attempts-b.deliveries > w.rate
		}
		r.backlog = r.backlog || all.lateP99 > float64(deadline)/1e6
	}
	if o.trace {
		costs, err := measureLayers(cr, w)
		if err != nil {
			return nil, err
		}
		layerMetrics(r, w, blocks, costs, timings)
		return r, nil
	}
	e := medianOfBlocks(w, e2e)
	r.set("goodput_mbytes_per_s", "MB/s", e.goodput)
	r.set("latency_p50_ms", "ms", e.p50)
	r.set("latency_p99_ms", "ms", e.p99)
	r.set("deadline_met_ratio", "ratio", e.met)
	r.set("cpu_us_per_datagram", "us", e.cpu)
	r.set("max_rss_mb", "MB", rss)
	r.set("setup_s", "s", median(timings, func(st setupTiming) float64 { return st.total.Seconds() }))
	return r, nil
}

// windowStats are end-to-end statistics over one or more blocks.
type windowStats struct {
	goodput, p50, p99, met, cpu, lateP99 float64
	deliveries                           int
	samples                              uint64
}

// pool computes statistics over blocks taken together.
func pool(w workload, blocks []*block) windowStats {
	lat, late := newHist(), newHist()
	var ws windowStats
	var secs, cpu float64
	met, attempts := 0, 0
	for _, b := range blocks {
		lat.merge(b.lat)
		late.merge(b.late)
		ws.deliveries += b.deliveries
		met += b.met
		attempts += b.attempts
		secs += b.secs
		cpu += b.cpu
	}
	ws.samples = lat.n
	ws.goodput = ratio(float64(ws.deliveries*w.size), secs) / 1e6
	ws.p50 = lat.quantile(0.50) / 1e6
	ws.p99 = lat.quantile(0.99) / 1e6
	ws.lateP99 = late.quantile(0.99) / 1e6
	ws.met = ratio(float64(met), float64(attempts))
	ws.cpu = ratio(cpu, float64(ws.deliveries))
	return ws
}

// medianOfBlocks takes each statistic per block and reports its median
// across the blocks.
func medianOfBlocks(w workload, blocks []*block) windowStats {
	var per []windowStats
	for _, b := range blocks {
		per = append(per, pool(w, []*block{b}))
	}
	return windowStats{
		goodput: median(per, func(s windowStats) float64 { return s.goodput }),
		p50:     median(per, func(s windowStats) float64 { return s.p50 }),
		p99:     median(per, func(s windowStats) float64 { return s.p99 }),
		met:     median(per, func(s windowStats) float64 { return s.met }),
		cpu:     median(per, func(s windowStats) float64 { return s.cpu }),
	}
}

func median[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuMicros is the process's user+system CPU time in microseconds.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
