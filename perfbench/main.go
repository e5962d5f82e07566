// Command perfbench is the repository benchmark: it runs one named
// workload in one process over loopback sockets through the public minion
// API (ListenConfig.Listen, DialConfig.Dial, Conn.Send/OnMessage, genuine
// TLS 1.2 via SelfSignedTLS), checks every delivered datagram, and prints
// its metrics as one JSON object on the last line of standard output.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 a traced
// run reports the per-layer metrics. README.md lists both and the
// end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed; payloads and the loss schedule derive from it")
	seconds := flag.Int("seconds", 40, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		setups:  40,
		warmup:  200 * time.Millisecond,
	}
	r, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !r.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness tally failed: backlog=%v lost=%d duplicate=%d corrupt=%d\n",
			w.name, r.backlog, r.lost, r.duplicate, r.corrupt)
	}
	printJSON(map[string]any{"info": info(w, o, r)})
	printJSON(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed + r.lost,
		"metrics":   r.metrics,
	})
}

// info records what a reader needs to interpret the numbers.
func info(w workload, o options, r *report) map[string]any {
	shape := fmt.Sprintf("closed loop, %d datagrams of %d B in flight", w.window, w.size)
	if w.rate > 0 {
		shape = fmt.Sprintf("open loop, %d datagrams/s of %d B, timed from the due time", w.rate, w.size)
	}
	loss := "none"
	if w.loss > 0 {
		loss = fmt.Sprintf("seeded Bernoulli %.0f%% drop of data-bearing UDP datagrams at the wire fault seam", 100*w.loss)
	}
	return map[string]any{
		"workload":   w.name,
		"stack":      w.proto.String() + " over " + w.network,
		"shape":      shape,
		"seed":       o.seed,
		"loss_model": loss,
		"link":       "loopback, not a real link",
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"traced":     o.trace,
		"seconds":    o.seconds.Seconds(),
		"tally": map[string]any{
			"attempted":    r.attempted,
			"delivered":    r.delivered,
			"lost":         r.lost,
			"duplicate":    r.duplicate,
			"corrupt":      r.corrupt,
			"failed_sends": r.failed,
			"backlog":      r.backlog,
			"setups":       r.setups,
			"setup_stalls": r.stalls,
		},
		"latency_samples": r.samples,
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
