// Command minionbench regenerates the paper's evaluation (§8): every
// figure and table has a subcommand that builds the corresponding simulated
// topology, runs the workload, and prints the series the paper plots.
//
// Usage:
//
//	minionbench [-full] <experiment>
//
// where <experiment> is one of:
//
//	fig5    raw uTCP vs TCP throughput by application message size
//	rawcpu  raw uTCP CPU cost vs TCP (§8.1)
//	fig6a   COBS/uCOBS CPU cost vs raw TCP
//	fig6b   TLS vs uTLS CPU and bandwidth
//	fig7    VoIP frame latency CDF under contention
//	fig8    codec-perceived loss-burst CDF
//	fig9    moving quality score over a long call
//	fig10   send-side prioritization delays
//	fig11   VPN tunnel download vs competing uploads
//	fig12   VPN modification ablation
//	fig13   pipelined HTTP/1.1 vs parallel msTCP page loads
//	table1  implementation complexity
//	all     everything above
//
// One further subcommand soaks the real-socket relay:
//
//	relaysoak  run the multi-tenant relay gateway for minutes (-short:
//	           ~60s) under middlebox loss shaping, TLS DPI inspection,
//	           and periodic FaultHooks error storms, asserting ledger
//	           balance, goroutine return, bounded per-class p99 latency,
//	           bounded shedding, and zero cross-tenant starvation;
//	           prints its summary to stdout; flags follow the subcommand
//
// Per-layer datapath costs live in the repository benchmark (perfbench/)
// and in the allocation, writev and transfer-budget tests, not here.
//
// By default experiments run at a reduced "quick" scale; -full runs
// paper-scale durations (minutes of CPU time).
package main

import (
	"flag"
	"fmt"
	"os"

	"minion/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run paper-scale durations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: minionbench [-full] <fig5|rawcpu|fig6a|fig6b|fig7|fig8|fig9|fig10|fig11|fig12|fig13|table1|all>\n")
		fmt.Fprintf(os.Stderr, "       minionbench relaysoak [-short] [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "relaysoak" {
		if err := runRelaySoak(flag.Args()[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "minionbench: relaysoak: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	sc := experiments.Quick
	if *full {
		sc = experiments.Full
	}

	runners := map[string]func(experiments.Scale) experiments.Result{
		"fig5":   experiments.Fig5,
		"rawcpu": experiments.RawCPU,
		"fig6a":  experiments.Fig6a,
		"fig6b":  experiments.Fig6b,
		"fig7":   experiments.Fig7,
		"fig8":   experiments.Fig8,
		"fig9":   experiments.Fig9,
		"fig10":  experiments.Fig10,
		"fig11":  experiments.Fig11,
		"fig12":  experiments.Fig12,
		"fig13":  experiments.Fig13,
		"table1": func(experiments.Scale) experiments.Result { return experiments.Table1() },
	}

	name := flag.Arg(0)
	if name == "all" {
		fmt.Print(experiments.Render(experiments.All(sc)))
		return
	}
	run, ok := runners[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "minionbench: unknown experiment %q\n", name)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Print(run(sc).String())
}
