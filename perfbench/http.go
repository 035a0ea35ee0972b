package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/bcrs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/solver"
)

// http-mixed is two keep-alive clients on a small matrix, so HTTP,
// JSON and dispatch carry most of the time and the engine batches the
// two clients' singles and ensembles together.
var (
	httpFull = servedSize{n: 300, phi: 0.3, clients: 2, members: 8, warmup: 3 * time.Second, limit: 100 * time.Millisecond}
	httpTiny = servedSize{n: 60, phi: 0.3, clients: 2, members: 8, warmup: 200 * time.Millisecond, limit: 100 * time.Millisecond}
)

// runHTTP serves the engine over loopback HTTP to a closed loop of
// keep-alive clients: 3 solves with explicit b for every ensemble of K
// seeds.
func runHTTP(opt options) (*outcome, error) {
	size := httpFull
	if opt.tiny {
		size = httpTiny
	}
	o := &outcome{limit: size.limit.Seconds(), layers: map[string]float64{}}
	top := &timedOp{}
	var srv *serve.Server
	a, mc, setup, err := servedSetup(opt, size, top, func(op solver.BlockOperator, cfg serve.Config) error {
		if srv != nil {
			srv.Shutdown(context.Background())
		}
		var err error
		srv, err = serve.Start("127.0.0.1:0", serve.NewEngine(op, cfg))
		return err
	})
	if srv != nil {
		defer srv.Shutdown(context.Background())
	}
	if err != nil {
		return nil, err
	}
	o.setup, o.matrix = setup, matrixInfo(a)

	clients := make([]client, size.clients)
	for i := range clients {
		c := &httpClient{
			http:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}},
			s:       rng.Substream(opt.seed, uint64(10+i)),
			a:       a,
			k:       size.members,
			base:    "http://" + srv.Addr(),
			corrupt: opt.corrupt && i == 0,
		}
		defer c.http.CloseIdleConnections()
		clients[i] = c
	}
	measured := closedLoop(opt, o, clients, size.warmup, a, mc, top)
	if opt.trace {
		// Time outside the engine: HTTP, JSON and dispatch.
		for ens, kind := range kinds {
			var over []float64
			for _, x := range measured {
				if x.err == nil && x.ensemble == ens {
					over = append(over, 1e3*x.latency-x.queueWaitMS-x.solveMS)
				}
			}
			o.layers["http.overhead_ms_p50."+kind] = median(over)
		}
	}
	return o, nil
}

// httpClient is one keep-alive connection to the server.
type httpClient struct {
	http *http.Client
	s    *rng.Stream
	a    *bcrs.Matrix // the served operator, for checking answers
	k    int
	base string
	// corrupt perturbs the client's next answer before it is checked.
	corrupt bool
}

// do sends the client's next request: a solve with explicit b, or an
// ensemble of K seeds whose right-hand sides the server generates. The
// body is built before the clock starts; the response is decoded
// before it stops.
func (c *httpClient) do() *exchange {
	x := &exchange{ensemble: c.s.Intn(4) == 0}
	var bs [][]float64
	var path string
	var body []byte
	if x.ensemble {
		seeds := make([]uint64, c.k)
		for i := range seeds {
			seeds[i] = c.s.Uint64()
			b := make([]float64, c.a.N())
			rng.New(seeds[i]).FillNormal(b) // the server's seeded right-hand side
			bs = append(bs, b)
		}
		path = "/v1/ensemble"
		body, _ = json.Marshal(serve.EnsembleRequest{Seeds: seeds})
	} else {
		b := make([]float64, c.a.N())
		c.s.FillNormal(b)
		bs = append(bs, b)
		path = "/v1/solve"
		body, _ = json.Marshal(serve.SolveRequest{B: b})
	}
	var solve serve.SolveResponse
	var ens serve.EnsembleResponse
	x.start = time.Now()
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err == nil {
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
		} else if x.ensemble {
			err = json.NewDecoder(resp.Body).Decode(&ens)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&solve)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	x.latency = time.Since(x.start).Seconds()
	x.err = err

	// One member list for both kinds; a solve is its only member.
	members := ens.Members
	x.queueWaitMS, x.solveMS, x.batchSize, x.kernelM = ens.QueueWaitMS, ens.SolveMS, ens.BatchSize, ens.KernelM
	if !x.ensemble {
		members = []serve.EnsembleMember{{X: solve.X, Converged: solve.Converged, Iterations: solve.Iterations, Residual: solve.Residual}}
		x.queueWaitMS, x.solveMS, x.batchSize, x.kernelM = solve.QueueWaitMS, solve.SolveMS, solve.BatchSize, solve.KernelM
	}
	if x.err == nil && len(members) != len(bs) {
		x.err = fmt.Errorf("%s: %d answers for %d right-hand sides", path, len(members), len(bs))
	}
	if x.err != nil {
		members = make([]serve.EnsembleMember, len(bs))
	}
	if c.corrupt && len(members[0].X) > 0 {
		members[0].X[0]++
		c.corrupt = false
	}
	for i, m := range members {
		st := solver.Stats{Converged: m.Converged, Residual: m.Residual}
		x.iters = append(x.iters, m.Iterations)
		x.verdicts = append(x.verdicts, checkAnswer(c.a, bs[i], m.X, st, x.err))
	}
	return x
}
