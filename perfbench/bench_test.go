package main

import (
	"encoding/json"
	"os"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	return s
}

// runTiny runs one workload at test size and scores it.
func runTiny(t *testing.T, workload string, opt options) result {
	t.Helper()
	run, ok := workloads[workload]
	if !ok {
		t.Fatalf("BENCHMARK.json names unknown workload %q", workload)
	}
	opt.tiny = true
	opt.seconds = 1
	o, err := run(opt)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return score(o, opt.trace)
}

// TestEveryMetricEmitted runs each workload tiny, untraced and traced,
// and checks that exactly the metrics BENCHMARK.json names are emitted
// with their units and that every answer checks out; a second seed
// must pass the correctness check too.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res := runTiny(t, w.Name, options{seed: 1, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, traced, name, got, unit)
				}
			}
		}
		if res := runTiny(t, w.Name, options{seed: 2}); !res.Correct || res.Failed != 0 {
			t.Errorf("%s seed 2: correct=%v failed=%d", w.Name, res.Correct, res.Failed)
		}
	}
}

// TestCorruptedAnswerCaught perturbs one answer per workload before
// the correctness check and expects the run to be marked wrong.
func TestCorruptedAnswerCaught(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		res := runTiny(t, w.Name, options{seed: 1, corrupt: true})
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted answer not caught (correct=%v failed=%d)", w.Name, res.Correct, res.Failed)
		}
	}
}

// TestQuantile pins the interpolation the latency percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.5}, {0.5, 3}, {0.75, 4.5}, {0.95, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
