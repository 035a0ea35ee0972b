// Command perfbench is the repository benchmark. It drives the MRHS
// solver stack from outside, through its public APIs only, on one of
// three workloads, checks every answer, and prints one JSON result as
// the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (the matrices are fixed; --seed drives every other input):
//
//	traj-sd     core.Runner MRHS stepping (Algorithm 2), N=3000 SD
//	            spheres at phi=0.5, m=16, repeated 32-step trajectories
//	            from one start. Assembly, block CG and the m-wide
//	            Chebyshev run here and nowhere else.
//	serve-sd    in-process serve.Engine on a fixed N=1000, phi=0.5 SD
//	            matrix (224 CG iterations), one closed-loop client
//	            sending a 3:1 mix of single solves and K=8 ensembles. The
//	            fused MultiCG and GSPMV at m=1 and m=8 carry latency;
//	            there is no assembly and no HTTP.
//	http-mixed  serve.Start on loopback, N=300 phi=0.3 SD matrix, a
//	            closed loop of 2 keep-alive clients sending a 3:1 mix
//	            of /v1/solve (explicit b) and /v1/ensemble (K=8 seeds).
//	            JSON, admission and dispatch carry most of the time,
//	            and the batcher joins the two clients' requests.
//
// With --trace 0 the metrics are the end-to-end ones (every workload
// reports all of them, over its own operation: a simulated step or a
// request). With --trace 1 the run is split into an untraced and a
// traced half and the metrics are the per-layer ones, taken from the
// traced half; trace.overhead_frac is the traced half's median
// latency over the untraced half's, minus one. A provenance line
// precedes the result.
//
// Engine and stepper settings are the shipped defaults of
// mrhs-server (fused mode, calibrated cost model, tol 1e-6) and
// mrhs-sim (MRHS, m=16, dt=2), at 2 kernel threads.
//
// Build and run it with perfbench/run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// threads is the kernel-thread budget of every workload.
const threads = 2

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds float64 // measured window
	trace   bool
	// tiny shrinks every workload to test size.
	tiny bool
	// corrupt perturbs the first returned answer before it is checked,
	// so a test can show that a wrong answer is caught.
	corrupt bool
}

// outcome is what a workload hands back for scoring.
type outcome struct {
	setup     []float64 // seconds per set-up repetition
	latencies []float64 // seconds per measured operation
	window    float64   // seconds of the measured window
	completed int       // successful operations finished inside the window
	good      int       // of those, the ones within limit
	limit     float64   // goodput latency limit, seconds

	attempted, failed int
	// invalid names why the run cannot be trusted (a failed or wrong
	// answer, a diverged trajectory); empty when it can.
	invalid []string

	layers map[string]float64 // per-layer metrics, traced runs only
	matrix map[string]any     // shape and bytes of the workload's matrix
}

// maxInvalid caps the reasons kept for an invalid run.
const maxInvalid = 10

func (o *outcome) fail(format string, args ...any) {
	if len(o.invalid) < maxInvalid {
		o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
	}
}

// check counts one checked answer, failing the run when err is set.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.fail("%v", err)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"traj-sd":    runTraj,
	"serve-sd":   runServe,
	"http-mixed": runHTTP,
}

// endToEnd lists the --trace 0 metrics and their units, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"goodput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// widths are the kernel widths the per-layer GSPMV metrics cover.
var widths = []int{1, 2, 4, 8, 16, 32}

// perLayer lists the --trace 1 metrics and their units. A layer a
// workload does not exercise reports 0.
var perLayer = func() []struct{ name, unit string } {
	l := []struct{ name, unit string }{
		{"core.construct_s", "s"},
		{"chebyshev.block_s", "s"},
		{"chebyshev.single_s", "s"},
		{"solver.block_cg_s", "s"},
		{"solver.block_cg_iters", "count"},
		{"solver.first_solve_s", "s"},
		{"solver.second_solve_s", "s"},
		{"solver.first_iters", "count"},
		{"solver.second_iters", "count"},
		{"solver.iters_per_solve", "count"},
		{"solver.vecops_frac", "frac"},
		{"bcrs.gspmv_frac", "frac"},
		{"bcrs.r16", "ratio"},
		{"model.B_gbps", "GB/s"},
		{"model.F_gflops", "Gflop/s"},
		{"model.r16_pred", "ratio"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.solve_ms_p50", "ms"},
		{"serve.batch_size_mean", "count"},
		{"serve.kernel_m_mean", "count"},
		{"serve.queue_wait_ms_p50.solve", "ms"},
		{"serve.queue_wait_ms_p50.ensemble", "ms"},
		{"serve.kernel_m_mean.solve", "count"},
		{"serve.kernel_m_mean.ensemble", "count"},
		{"http.overhead_ms_p50.solve", "ms"},
		{"http.overhead_ms_p50.ensemble", "ms"},
		{"trace.overhead_frac", "frac"},
		{"failed_frac", "frac"},
	}
	for _, m := range widths {
		l = append(l,
			struct{ name, unit string }{fmt.Sprintf("bcrs.s_per_call.m%d", m), "s"},
			struct{ name, unit string }{fmt.Sprintf("bcrs.gbps_computed.m%d", m), "GB/s"},
			struct{ name, unit string }{fmt.Sprintf("model.t_pred.m%d", m), "s"},
		)
	}
	return l
}()

func main() {
	var (
		workload = flag.String("workload", "", "workload: traj-sd, serve-sd or http-mixed")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured window, seconds")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	start, steal := time.Now(), stealSeconds()
	o, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov := provenance(*workload, opt, start, o)
	prov["cpu_steal_s"] = stealSeconds() - steal
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Println(string(line))
	for _, why := range o.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", why)
	}
	line, err = json.Marshal(score(o, opt.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// score turns an outcome into the result line.
func score(o *outcome, traced bool) result {
	res := result{
		Correct:   len(o.invalid) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		o.layers["failed_frac"] = float64(o.failed) / float64(max(o.attempted, 1))
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{finiteOr0(o.layers[m.name]), m.unit}
		}
		return res
	}
	v := map[string]float64{
		"setup_s":          median(o.setup),
		"latency_p50_ms":   1e3 * quantile(o.latencies, 0.50),
		"latency_p95_ms":   1e3 * quantile(o.latencies, 0.95),
		"throughput_per_s": float64(o.completed) / o.window,
		"goodput_per_s":    float64(o.good) / o.window,
		"peak_rss_mb":      peakRSSMB(),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{finiteOr0(v[m.name]), m.unit}
	}
	return res
}

// finiteOr0 maps the NaN or infinity a failed run's empty sample can
// leave in a ratio to 0, which JSON can carry; the run already reads
// correct=false.
func finiteOr0(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// provenance records what produced a result: commit, toolchain, host,
// invocation, and the workload matrix against the host's L3 size (a
// matrix that fits in L3 cannot show DRAM-traffic effects).
func provenance(workload string, opt options, start time.Time, o *outcome) map[string]any {
	return map[string]any{
		"git_sha":    os.Getenv("PERFBENCH_GIT_SHA"),
		"git_dirty":  os.Getenv("PERFBENCH_GIT_DIRTY"),
		"go_version": runtime.Version(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"threads":    threads,
		"argv":       os.Args,
		"workload":   workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"timestamp":  start.UTC().Format(time.RFC3339),
		"l3_bytes":   l3Bytes(),
		"matrix":     o.matrix,
		"setup_s":    o.setup,
		"samples":    len(o.latencies),
		"invalid":    o.invalid,
	}
}
