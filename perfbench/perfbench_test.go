package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return s
}

// TestWorkloadsShort runs a short mode of every workload, untraced and
// traced, and checks the correctness tally and that exactly the metrics
// BENCHMARK.json names are reported, each with its unit.
func TestWorkloadsShort(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := lookup(sw.Name)
		if !ok {
			t.Fatalf("workload %s is in BENCHMARK.json but not in the benchmark", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			r, err := run(w, options{seed: 7, seconds: 2 * time.Second, trace: traced, setups: 3, warmup: 100 * time.Millisecond})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.correct() || r.attempted == 0 || r.failed != 0 {
				t.Errorf("%s traced=%v: tally attempted=%d failed=%d lost=%d duplicate=%d corrupt=%d backlog=%v",
					w.name, traced, r.attempted, r.failed, r.lost, r.duplicate, r.corrupt, r.backlog)
			}
			if len(r.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", w.name, traced, len(r.metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestHistQuantiles pins the histogram's bucket arithmetic: exact below
// 256 ns and within its stated relative error above.
func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := 1; v <= 1000; v++ {
		h.add(time.Duration(v) * time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}} {
		if got := h.quantile(c.q); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	for v := int64(0); v < 256; v++ {
		if got := histValue(histBucket(v)); got != float64(v) {
			t.Errorf("value %d reads back as %v", v, got)
		}
	}
}

// TestIntact checks that the receiver's integrity check accepts what the
// generator writes and rejects any single flipped bit.
func TestIntact(t *testing.T) {
	in := newInputs(3, 160)
	msg := make([]byte, 160)
	in.fill(msg, 12345, 678)
	if seq, ts, ok := in.intact(msg); !ok || seq != 12345 || ts != 678 {
		t.Fatalf("intact = %d, %d, %v", seq, ts, ok)
	}
	for i := range msg {
		msg[i] ^= 1
		if _, _, ok := in.intact(msg); ok {
			t.Errorf("flipped bit in byte %d not detected", i)
		}
		msg[i] ^= 1
	}
}
