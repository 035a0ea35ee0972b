package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bcrs"
	"repro/internal/core"
	"repro/internal/hydro"
	"repro/internal/obs"
	"repro/internal/particles"
	"repro/internal/perf"
	"repro/internal/sd"
)

// trajSize is the traj-sd system: the paper's Table VI experiment.
type trajSize struct {
	n     int
	phi   float64
	m     int
	steps int // per repetition; two chunks of m
	limit time.Duration
}

var (
	trajFull = trajSize{n: 3000, phi: 0.5, m: 16, steps: 32, limit: 5 * time.Second}
	trajTiny = trajSize{n: 150, phi: 0.3, m: 4, steps: 8, limit: 5 * time.Second}
)

// packSeed fixes every workload's particle packing, so each workload
// measures one matrix; --seed drives the noise, right-hand sides and
// traffic.
const packSeed = 1

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 3

// runTraj repeats one MRHS trajectory from a fixed start: every
// repetition must integrate the bitwise-identical trajectory. Each
// simulated step is one operation; its latency is the wall time
// between consecutive completed steps, so the first step of each chunk
// carries the chunk's assembly, m-wide Chebyshev and block solve.
func runTraj(opt options) (*outcome, error) {
	size := trajFull
	if opt.tiny {
		size = trajTiny
	}
	o := &outcome{limit: size.limit.Seconds(), layers: map[string]float64{}}

	var start *particles.System
	var a0 *bcrs.Matrix
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		sys, err := particles.New(particles.Options{N: size.n, Phi: size.phi, Seed: packSeed})
		if err != nil {
			return nil, err
		}
		a0 = sd.NewConf(sys, hydro.Options{}, threads).Build()
		o.setup = append(o.setup, time.Since(t0).Seconds())
		start = sys
	}
	o.matrix = matrixInfo(a0)
	cfg := core.Config{Dt: 2, M: size.m, Seed: opt.seed, Tol: 1e-6}

	// Warm-up: two steps from the start, discarded.
	warm := core.NewRunner(sd.NewConf(start.Clone(), hydro.Options{}, threads), cfg)
	if err := warm.RunMRHS(2); err != nil {
		return nil, fmt.Errorf("traj-sd warm-up: %w", err)
	}

	var sum uint64
	reps := 0
	rep := func(traced bool) ([]float64, *core.Runner, time.Duration) {
		r := core.NewRunner(sd.NewConf(start.Clone(), hydro.Options{}, threads), cfg)
		if traced {
			tr := obs.NewTracer(1, 1).Start("traj-sd")
			defer tr.Finish()
			r.Trace = tr
		}
		lat := make([]float64, 0, size.steps)
		t0 := time.Now()
		last := t0
		r.OnStep = func(int, []float64, float64) {
			now := time.Now()
			lat = append(lat, now.Sub(last).Seconds())
			last = now
		}
		err := r.RunMRHS(size.steps)
		wall := time.Since(t0)
		o.attempted += size.steps
		reps++
		sys := r.Current().(*sd.Conf).Sys
		switch {
		case err != nil:
			o.failed += size.steps - len(lat)
			o.fail("repetition %d: %v", reps, err)
		case !finite(sys):
			o.failed += size.steps
			o.fail("repetition %d: non-finite positions", reps)
		default:
			c := sys.Checksum()
			if opt.corrupt && reps == 1 {
				c ^= 1
			}
			if sum == 0 {
				sum = c
			} else if c != sum {
				o.failed += size.steps
				o.fail("repetition %d: trajectory checksum %016x, first repetition %016x", reps, c, sum)
			}
		}
		return lat, r, wall
	}

	// measure runs whole repetitions, at least minReps, filling the
	// window to the nearest repetition.
	measure := func(window float64, minReps int, traced bool) (lat []float64, runs []*core.Runner, wall time.Duration) {
		var last time.Duration
		for len(runs) < minReps || (wall+last/2).Seconds() < window {
			l, r, w := rep(traced)
			lat = append(lat, l...)
			runs = append(runs, r)
			wall += w
			last = w
		}
		return lat, runs, wall
	}

	if !opt.trace {
		// Two repetitions at least: the checksum is compared across them.
		lat, _, wall := measure(opt.seconds, 2, false)
		o.latencies = lat
		o.window = wall.Seconds()
		o.completed = len(lat)
		for _, l := range lat {
			if l <= o.limit {
				o.good++
			}
		}
		return o, nil
	}

	untraced, _, _ := measure(opt.seconds/2, 1, false)
	k0 := kernelSnapshot()
	traced, runs, wall := measure(opt.seconds/2, 1, true)
	gspmv := kernelLayers(o.layers, k0, kernelSnapshot())
	o.latencies = traced
	o.layers["trace.overhead_frac"] = overheadFrac(untraced, traced)
	trajLayers(o.layers, runs, wall, gspmv)
	modelLayers(o.layers, a0, perf.CalibratedMachine())
	return o, nil
}

// trajLayers reports the stepper's phase split from the runners'
// public Timings and Records: seconds per step for each phase, mean
// iterations, and the GSPMV and remaining shares of wall time.
func trajLayers(layers map[string]float64, runs []*core.Runner, wall time.Duration, gspmv float64) {
	var t core.Timings
	var blockIters, chunks, firstIters, firsts, secondIters int
	for _, r := range runs {
		t.Construct += r.Timings.Construct
		t.ChebVectors += r.Timings.ChebVectors
		t.CalcGuesses += r.Timings.CalcGuesses
		t.ChebSingle += r.Timings.ChebSingle
		t.FirstSolve += r.Timings.FirstSolve
		t.SecondSolve += r.Timings.SecondSolve
		t.Steps += r.Timings.Steps
		blockIters += r.BlockIters
		chunks += (r.Timings.Steps + r.Cfg().M - 1) / r.Cfg().M
		for _, rec := range r.Records {
			if rec.FirstIters > 0 {
				firstIters += rec.FirstIters
				firsts++
			}
			secondIters += rec.SecondIters
		}
	}
	per := t.PerStep()
	layers["core.construct_s"] = per["Construct"]
	layers["chebyshev.block_s"] = per["Cheb vectors"]
	layers["chebyshev.single_s"] = per["Cheb single"]
	layers["solver.block_cg_s"] = per["Calc guesses"]
	layers["solver.first_solve_s"] = per["1st solve"]
	layers["solver.second_solve_s"] = per["2nd solve"]
	layers["solver.block_cg_iters"] = float64(blockIters) / float64(chunks)
	layers["solver.first_iters"] = float64(firstIters) / float64(max(firsts, 1))
	layers["solver.second_iters"] = float64(secondIters) / float64(t.Steps)
	layers["solver.iters_per_solve"] = float64(firstIters+secondIters) / float64(firsts+t.Steps)
	layers["bcrs.gspmv_frac"] = gspmv / wall.Seconds()
	layers["solver.vecops_frac"] = 1 - (gspmv+t.Construct.Seconds())/wall.Seconds()
}

func finite(sys *particles.System) bool {
	for _, p := range sys.Pos {
		for _, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
