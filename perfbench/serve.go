package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bcrs"
	"repro/internal/hydro"
	"repro/internal/model"
	"repro/internal/particles"
	"repro/internal/perf"
	"repro/internal/rng"
	"repro/internal/sd"
	"repro/internal/serve"
	"repro/internal/solver"
)

// servedSize is a served workload's matrix and traffic.
type servedSize struct {
	n       int
	phi     float64
	clients int // closed-loop clients, one request in flight each
	members int // right-hand sides per ensemble request
	warmup  time.Duration
	limit   time.Duration // goodput latency limit
}

// serve-sd is one in-process client: its single solves (m=1) and
// K=8 ensembles (m=8) have kernel widths fixed by the request, so the
// fused MultiCG and GSPMV carry the latency. Open Poisson arrivals at
// 15/s and 30/s, and closed loops of 4 clients, were tried first: with
// several requests in flight the batches the window forms depend on
// timing, and their median latency moved by up to 2x between runs of
// one seed on a 2-vCPU host losing CPU to steal.
var (
	serveFull = servedSize{n: 1000, phi: 0.5, clients: 1, members: 8, warmup: 3 * time.Second, limit: 500 * time.Millisecond}
	serveTiny = servedSize{n: 100, phi: 0.3, clients: 1, members: 8, warmup: 200 * time.Millisecond, limit: 500 * time.Millisecond}
)

// engineConfig is mrhs-server's default engine configuration, with the
// calibrated cost model it turns on by default.
func engineConfig(a *bcrs.Matrix, mc model.Machine) serve.Config {
	return serve.Config{
		Tol:             1e-6,
		MaxIter:         1000,
		Mode:            serve.ModeFused,
		MaxBatch:        32,
		MaxWait:         2 * time.Millisecond,
		WaitFactor:      1.5,
		TraceSample:     1,
		DefaultEnsemble: 4,
		Model: &model.GSPMV{
			Machine: mc,
			Shape:   model.Shape{NB: a.NB(), NNZB: a.NNZB()},
			K:       model.DefaultK,
		},
	}
}

// sdMatrix packs the workload's fixed particle system and assembles
// its resistance matrix.
func sdMatrix(n int, phi float64) (*bcrs.Matrix, error) {
	sys, err := particles.New(particles.Options{N: n, Phi: phi, Seed: packSeed})
	if err != nil {
		return nil, err
	}
	a := sd.NewConf(sys, hydro.Options{}, threads).Build()
	a.SetThreads(threads)
	return a, nil
}

// servedSetup sets a served workload up setupReps times: it builds the
// matrix, calibrates the cost model and calls start, which replaces
// whatever serves the operator. The operator is the matrix itself or,
// in traced runs, top wrapped around it.
func servedSetup(opt options, size servedSize, top *timedOp, start func(op solver.BlockOperator, cfg serve.Config) error) (*bcrs.Matrix, model.Machine, []float64, error) {
	var a *bcrs.Matrix
	var mc model.Machine
	var setup []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if a, err = sdMatrix(size.n, size.phi); err != nil {
			return nil, mc, nil, err
		}
		mc = perf.CalibratedMachine()
		var op solver.BlockOperator = a
		if opt.trace {
			top.a = a
			op = top
		}
		if err := start(op, engineConfig(a, mc)); err != nil {
			return nil, mc, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	return a, mc, setup, nil
}

// runServe drives an in-process engine with one closed-loop client.
func runServe(opt options) (*outcome, error) {
	size := serveFull
	if opt.tiny {
		size = serveTiny
	}
	o := &outcome{limit: size.limit.Seconds(), layers: map[string]float64{}}
	top := &timedOp{}
	var eng *serve.Engine
	a, mc, setup, err := servedSetup(opt, size, top, func(op solver.BlockOperator, cfg serve.Config) error {
		if eng != nil {
			eng.Close(context.Background())
		}
		eng = serve.NewEngine(op, cfg)
		return nil
	})
	if eng != nil {
		defer eng.Close(context.Background())
	}
	if err != nil {
		return nil, err
	}
	o.setup, o.matrix = setup, matrixInfo(a)

	clients := make([]client, size.clients)
	for i := range clients {
		clients[i] = &engineClient{
			eng:     eng,
			a:       a,
			s:       rng.Substream(opt.seed, uint64(1+i)),
			k:       size.members,
			corrupt: opt.corrupt && i == 0,
		}
	}
	closedLoop(opt, o, clients, size.warmup, a, mc, top)
	return o, nil
}

// exchange is one request a client sent: its timing, the engine's own
// accounting of it, and the verdict on each answer it returned. The
// answers are checked as they arrive, off the clock, and dropped:
// keeping every solution for a check after the window held several
// hundred MB on http-mixed.
type exchange struct {
	ensemble    bool
	start       time.Time
	latency     float64 // seconds, sent to answered
	err         error   // the request failed as a whole
	queueWaitMS float64
	solveMS     float64
	batchSize   int
	kernelM     int
	iters       []int   // per right-hand side
	verdicts    []error // per right-hand side; nil when correct
}

// client sends one request at a time, waits for the answer and checks
// it. A quarter of the requests are ensembles.
type client interface {
	do() *exchange
}

// engineClient submits straight to an in-process engine.
type engineClient struct {
	eng *serve.Engine
	a   *bcrs.Matrix
	s   *rng.Stream
	k   int
	// corrupt perturbs the client's next answer before it is checked.
	corrupt bool
}

func (c *engineClient) do() *exchange {
	x := &exchange{ensemble: c.s.Intn(4) == 0}
	reqs := make([]serve.Req, 1)
	if x.ensemble {
		reqs = make([]serve.Req, c.k)
	}
	for i := range reqs {
		reqs[i].B = make([]float64, c.a.N())
		c.s.FillNormal(reqs[i].B)
	}
	rs := make([]serve.Result, 1)
	x.start = time.Now()
	if x.ensemble {
		rs, x.err = c.eng.SubmitEnsemble(context.Background(), reqs)
	} else {
		rs[0], x.err = c.eng.Submit(context.Background(), reqs[0])
	}
	x.latency = time.Since(x.start).Seconds()
	if len(rs) != len(reqs) {
		rs = make([]serve.Result, len(reqs))
	}
	x.queueWaitMS, x.solveMS = 1e3*rs[0].QueueWait.Seconds(), 1e3*rs[0].SolveTime.Seconds()
	x.batchSize, x.kernelM = rs[0].BatchSize, rs[0].KernelM
	if c.corrupt && len(rs[0].X) > 0 {
		rs[0].X[0]++
		c.corrupt = false
	}
	for i, r := range rs {
		err := x.err
		if err == nil {
			err = r.Err
		}
		x.iters = append(x.iters, r.Stats.Iterations)
		x.verdicts = append(x.verdicts, checkAnswer(c.a, reqs[i].B, r.X, r.Stats, err))
	}
	return x
}

// checkAnswer validates one returned solution.
func checkAnswer(a *bcrs.Matrix, b, x []float64, st solver.Stats, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("request failed: %w", err)
	case !st.Converged:
		return fmt.Errorf("solve did not converge (residual %g)", st.Residual)
	case len(x) != len(b):
		return fmt.Errorf("answer has length %d, want %d", len(x), len(b))
	}
	if rr := relResidual(a, x, b); rr > checkTol {
		return fmt.Errorf("wrong answer: ||b-Ax||/||b|| = %g", rr)
	}
	return nil
}

// closedLoop runs the clients, each sending its next request when the
// last is answered, for a warm-up and the measured window, and scores
// the requests sent inside the window. A traced run measures an
// untraced and a traced half; in the traced half top times the served
// operator's multiplies. It returns the measured exchanges.
func closedLoop(opt options, o *outcome, clients []client, warmup time.Duration, a *bcrs.Matrix, mc model.Machine, top *timedOp) []*exchange {
	var all []*exchange
	pass := func(window float64, warm time.Duration) []*exchange {
		begin := time.Now()
		t0 := begin.Add(warm)
		end := t0.Add(time.Duration(window * float64(time.Second)))
		logs := make([][]*exchange, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(end) {
					logs[i] = append(logs[i], c.do())
				}
			}()
		}
		wg.Wait()
		var measured []*exchange
		for _, log := range logs {
			for _, x := range log {
				all = append(all, x)
				if x.start.Before(t0) {
					continue
				}
				measured = append(measured, x)
				done := x.start.Add(time.Duration(x.latency * float64(time.Second)))
				if x.err == nil && !done.After(end) {
					o.completed++
					if x.latency <= o.limit {
						o.good++
					}
				}
			}
		}
		return measured
	}

	var measured []*exchange
	if !opt.trace {
		measured = pass(opt.seconds, warmup)
		o.window = opt.seconds
	} else {
		untraced := pass(opt.seconds/2, warmup)
		k0 := kernelSnapshot()
		solve0 := floatCounter("serve_solve_seconds_total")
		top.on.Store(true)
		measured = pass(opt.seconds/2, warmup/2)
		top.on.Store(false)
		if solveSecs := floatCounter("serve_solve_seconds_total") - solve0; solveSecs > 0 {
			frac := float64(top.ns.Load()) / 1e9 / solveSecs
			o.layers["bcrs.gspmv_frac"] = frac
			o.layers["solver.vecops_frac"] = 1 - frac
		}
		kernelLayers(o.layers, k0, kernelSnapshot())
		modelLayers(o.layers, a, mc)
		o.layers["trace.overhead_frac"] = overheadFrac(exchangeLatencies(untraced), exchangeLatencies(measured))
		exchangeLayers(o.layers, measured)
	}
	o.latencies = exchangeLatencies(measured)
	for _, x := range all {
		for _, err := range x.verdicts {
			o.check(err)
		}
	}
	return measured
}

// exchangeLatencies returns each exchange's latency in seconds; failed
// exchanges count as infinitely late.
func exchangeLatencies(xs []*exchange) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x.latency
		if x.err != nil {
			out[i] = 1e9
		}
	}
	return out
}

// kinds names the two request kinds in per-layer metrics.
var kinds = map[bool]string{false: "solve", true: "ensemble"}

// exchangeLayers reports the engine's own accounting of the measured
// requests (the serve.Result fields, or their HTTP echo): queue wait
// (admission queue plus batching window), shared solve time, batch
// size and kernel width, overall and per request kind.
func exchangeLayers(layers map[string]float64, xs []*exchange) {
	var wait, solve, batch, kernel, iters []float64
	for ens, kind := range kinds {
		var kwait, kkernel []float64
		for _, x := range xs {
			if x.err != nil || x.ensemble != ens {
				continue
			}
			kwait = append(kwait, x.queueWaitMS)
			kkernel = append(kkernel, float64(x.kernelM))
			wait = append(wait, x.queueWaitMS)
			solve = append(solve, x.solveMS)
			batch = append(batch, float64(x.batchSize))
			kernel = append(kernel, float64(x.kernelM))
			for _, it := range x.iters {
				iters = append(iters, float64(it))
			}
		}
		layers["serve.queue_wait_ms_p50."+kind] = median(kwait)
		layers["serve.kernel_m_mean."+kind] = mean(kkernel)
	}
	layers["serve.queue_wait_ms_p50"] = median(wait)
	layers["serve.solve_ms_p50"] = median(solve)
	layers["serve.batch_size_mean"] = mean(batch)
	layers["serve.kernel_m_mean"] = mean(kernel)
	layers["solver.iters_per_solve"] = mean(iters)
}
