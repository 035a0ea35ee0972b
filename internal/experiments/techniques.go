package experiments

import (
	"fmt"

	"repro/internal/bcrs"
	"repro/internal/core"
	"repro/internal/solver"
)

func init() {
	register("ext-techniques",
		"EXTENSION: Section III technique comparison — cold CG, reused IC(0), Krylov recycling, MRHS guesses",
		extTechniques)
}

// extTechniques compares the per-step first-solve iteration counts of
// the three techniques the paper lists for sequences of slowly
// varying systems (Section III), plus the paper's MRHS guesses, on
// identical SD trajectories. The techniques plug into the time
// stepper through core.Config.FirstSolve.
func extTechniques(cfg Config) ([]*Table, error) {
	const phi = 0.5
	n := cfg.SizeMedium
	steps := cfg.Steps

	type variant struct {
		name    string
		m       int // chunk size; 1 means original algorithm
		solve   core.SolveFunc
		chunkIC bool // MRHS with the chunk-reused IC(0) on every solve
	}

	// Reused IC(0): factor the first matrix seen, keep applying it.
	var ic *solver.IC0
	icSolve := func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
		if ic == nil {
			var err error
			ic, err = solver.NewIC0(a)
			if err != nil {
				return solver.CG(a, x, b, opt)
			}
		}
		opt.Precond = ic
		return solver.CG(a, x, b, opt)
	}

	// Adaptive IC(0): the full Section III policy — refactor when
	// convergence degrades.
	ap := &solver.AdaptivePrecond{}
	apSolve := func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
		return ap.Solve(a, x, b, opt)
	}

	// Krylov recycling: deflate with the most recent solutions.
	var history [][]float64
	recSolve := func(a *bcrs.Matrix, x, b []float64, opt solver.Options) solver.Stats {
		var d *solver.Deflation
		if len(history) > 0 {
			d, _ = solver.NewDeflation(a, history)
		}
		st := solver.RecycledCG(a, x, b, d, opt)
		history = append(history, append([]float64(nil), x...))
		if len(history) > 4 {
			history = history[1:]
		}
		return st
	}

	variants := []variant{
		{"cold CG (baseline)", 1, nil, false},
		{"reused IC(0) precond", 1, icSolve, false},
		{"adaptive IC(0) precond", 1, apSolve, false},
		{"Krylov recycling (k<=4)", 1, recSolve, false},
		{"MRHS guesses (m=8)", 8, nil, false},
		{"MRHS + chunk IC(0) (m=8)", 8, nil, true},
	}

	t := &Table{
		Title:  fmt.Sprintf("EXT: first-solve iterations by technique (%d particles, phi=%.1f, %d steps)", n, phi, steps),
		Header: []string{"technique", "mean iters", "vs cold"},
	}
	var coldMean float64
	for _, v := range variants {
		sim, err := newSim(cfg, n, phi, v.m)
		if err != nil {
			return nil, err
		}
		// Install the technique on a fresh runner over the same
		// starting configuration.
		c := sim.Cfg()
		c.FirstSolve = v.solve
		c.PlainCG = !v.chunkIC
		runner := core.NewRunner(sim.Current(), c)
		if v.m > 1 {
			err = runner.RunMRHS(steps)
		} else {
			err = runner.RunOriginal(steps)
		}
		if err != nil {
			return nil, err
		}
		var iters, count int
		for _, rec := range runner.Records {
			if rec.FirstIters > 0 {
				iters += rec.FirstIters
				count++
			}
		}
		mean := float64(iters) / float64(count)
		if coldMean == 0 {
			coldMean = mean
		}
		t.Rows = append(t.Rows, []string{
			v.name, fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.0f%%", 100*mean/coldMean),
		})
		// Reset technique state between variants.
		ic = nil
		history = nil
		ap = &solver.AdaptivePrecond{}
	}
	t.Notes = append(t.Notes,
		"all variants run the same noise and trajectory; beyond-paper extension quantifying the Section III alternatives next to the MRHS approach")
	return []*Table{t}, nil
}
