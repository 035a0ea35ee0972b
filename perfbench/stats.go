package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bcrs"
	"repro/internal/model"
	"repro/internal/multivec"
	"repro/internal/obs"
)

// checkTol bounds the true relative residual ||b-Ax||/||b|| of an
// accepted answer: ten times the solve tolerance, to absorb the drift
// between CG's recursive residual and the explicit one.
const checkTol = 1e-5

// quantile returns the q-quantile of xs, interpolating at rank
// q*(n+1) as Python's statistics.quantiles does (0 for an empty
// sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := min(max(q*float64(len(s)+1), 1), float64(len(s))) - 1
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relResidual returns ||b - A x|| / ||b||, computed through the public
// single-vector multiply.
func relResidual(a *bcrs.Matrix, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MulVec(r, x)
	var num, den float64
	for i := range b {
		d := b[i] - r[i]
		num += d * d
		den += b[i] * b[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stealSeconds reads the CPU time the hypervisor took from this
// host's virtual CPUs since boot (0 when unknown): a run that lost
// much of it to steal measured a busy host, not the program.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// l3Bytes reads the size of the host's last-level cache (0 when
// unknown).
func l3Bytes() int64 {
	data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0
	}
	s := strings.TrimSpace(string(data))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, _ := strconv.ParseInt(s, 10, 64)
	return v * mult
}

// matrixInfo describes a workload matrix for the provenance block.
func matrixInfo(a *bcrs.Matrix) map[string]any {
	return map[string]any{
		"n":     a.N(),
		"nb":    a.NB(),
		"nnzb":  a.NNZB(),
		"bytes": a.TrafficBytes(0),
	}
}

// timedOp is a pass-through operator that times every multiply while
// switched on; the engine sees only the BlockOperator surface, which
// is all the fused solver calls.
type timedOp struct {
	a  *bcrs.Matrix
	on atomic.Bool
	ns atomic.Int64
}

func (t *timedOp) N() int { return t.a.N() }

func (t *timedOp) Mul(y, x *multivec.MultiVec) {
	if !t.on.Load() {
		t.a.Mul(y, x)
		return
	}
	t0 := time.Now()
	t.a.Mul(y, x)
	t.ns.Add(int64(time.Since(t0)))
}

// kernelTotals are the general GSPMV kernel counters (bcrs_mul_*) for
// one kernel width.
type kernelTotals struct {
	calls, bytes int64
	secs         float64
}

// kernelSnapshot reads the per-width kernel counters the bcrs package
// exports into obs.Default.
func kernelSnapshot() map[int]kernelTotals {
	snap := obs.Default.Snapshot()
	out := map[int]kernelTotals{}
	for name, v := range snap.Counters {
		base, labels := obs.SplitName(name)
		m, err := strconv.Atoi(labels["m"])
		if err != nil {
			continue
		}
		k := out[m]
		switch base {
		case bcrs.KernelMetricPrefix + "_calls_total":
			k.calls = v
		case bcrs.KernelMetricPrefix + "_bytes_total":
			k.bytes = v
		default:
			continue
		}
		out[m] = k
	}
	for name, v := range snap.FloatCounters {
		base, labels := obs.SplitName(name)
		m, err := strconv.Atoi(labels["m"])
		if err != nil || base != bcrs.KernelMetricPrefix+"_seconds_total" {
			continue
		}
		k := out[m]
		k.secs = v
		out[m] = k
	}
	return out
}

// floatCounter reads one float counter of obs.Default.
func floatCounter(name string) float64 {
	return obs.Default.Snapshot().FloatCounters[name]
}

// kernelLayers sets the measured GSPMV metrics from the kernel counter
// movement between two snapshots: seconds per call and computed
// bandwidth (bytes from the matrix size) per width, and the measured
// r(16). It returns the total kernel seconds.
func kernelLayers(layers map[string]float64, before, after map[int]kernelTotals) float64 {
	var total float64
	perCall := map[int]float64{}
	for m, k := range after {
		d := kernelTotals{k.calls - before[m].calls, k.bytes - before[m].bytes, k.secs - before[m].secs}
		if d.calls <= 0 || d.secs <= 0 {
			continue
		}
		total += d.secs
		perCall[m] = d.secs / float64(d.calls)
		layers["bcrs.s_per_call.m"+strconv.Itoa(m)] = perCall[m]
		layers["bcrs.gbps_computed.m"+strconv.Itoa(m)] = float64(d.bytes) / d.secs / 1e9
	}
	if perCall[1] > 0 && perCall[16] > 0 {
		layers["bcrs.r16"] = perCall[16] / perCall[1]
	}
	return total
}

// modelLayers puts the Section-IV model's predictions for matrix a on
// machine mc beside the measurements.
func modelLayers(layers map[string]float64, a *bcrs.Matrix, mc model.Machine) {
	g := model.GSPMV{Machine: mc, Shape: model.Shape{NB: a.NB(), NNZB: a.NNZB()}, K: model.DefaultK}
	layers["model.B_gbps"] = mc.B / 1e9
	layers["model.F_gflops"] = mc.F / 1e9
	for _, m := range widths {
		layers["model.t_pred.m"+strconv.Itoa(m)] = g.T(m)
	}
	layers["model.r16_pred"] = g.RelativeTime(16)
}

// overheadFrac is the traced half's median latency over the untraced
// half's, minus one.
func overheadFrac(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return median(traced)/u - 1
}
