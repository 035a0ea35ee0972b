package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/multivec"
	"repro/internal/rng"
	"repro/internal/solver"
)

func testMatrix() *bcrs.Matrix {
	return bcrs.Random(bcrs.RandomOptions{NB: 150, BlocksPerRow: 6, Seed: 3})
}

// loneSolve solves A*x = b alone through solver.CG with the engine's
// preconditioner (its own IC(0) factor by default, nil under PlainCG):
// the reference every batched answer must match bitwise.
func loneSolve(e *Engine, a solver.Operator, b []float64, tol float64, maxIter int) ([]float64, solver.Stats) {
	x := make([]float64, a.N())
	st := solver.CG(a, x, b, solver.Options{Tol: tol, MaxIter: maxIter, Precond: e.Config().Precond})
	return x, st
}

func testRHS(n int, seed uint64) []float64 {
	b := make([]float64, n)
	s := rng.New(seed)
	for i := range b {
		b[i] = s.Normal()
	}
	return b
}

// sleepyOp wraps an operator with a sleep inside every multiply: the
// dispatcher goroutine genuinely blocks mid-solve, which lets tests
// build queue pressure deterministically even on a single-core
// scheduler.
type sleepyOp struct {
	inner *bcrs.Matrix
	d     time.Duration
}

func (s *sleepyOp) N() int { return s.inner.N() }

func (s *sleepyOp) Mul(y, x *multivec.MultiVec) {
	time.Sleep(s.d)
	s.inner.Mul(y, x)
}

// TestServeBatchedBitwiseEquivalence is the acceptance test: concurrent
// requests coalesced into multi-RHS batches must produce solutions
// bitwise-identical to solving each request alone at the same thread
// count — with the engine's IC(0) factor by default, and with plain CG
// under PlainCG (which is what the unpreconditioned engine answered).
func TestServeBatchedBitwiseEquivalence(t *testing.T) {
	for _, plain := range []bool{false, true} {
		t.Run(map[bool]string{false: "ic0", true: "plain"}[plain], func(t *testing.T) {
			testBatchedBitwise(t, plain)
		})
	}
}

func testBatchedBitwise(t *testing.T, plain bool) {
	a := testMatrix()
	n := a.N()
	const nreq = 12
	const tol = 1e-8

	e := NewEngine(a, Config{Tol: tol, MaxIter: 500, MaxWait: 50 * time.Millisecond, PlainCG: plain})
	defer e.Close(context.Background())
	if _, ok := e.Config().Precond.(*solver.IC0); ok == plain {
		t.Fatalf("PlainCG=%v but engine preconditioner is %T", plain, e.Config().Precond)
	}

	// Unbatched references, solved one at a time.
	refs := make([][]float64, nreq)
	refStats := make([]solver.Stats, nreq)
	for i := range refs {
		refs[i], refStats[i] = loneSolve(e, a, testRHS(n, uint64(100+i)), tol, 500)
		if !refStats[i].Converged {
			t.Fatalf("reference CG %d did not converge", i)
		}
	}

	results := make([]Result, nreq)
	errs := make([]error, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(100+i))})
		}(i)
	}
	wg.Wait()

	batched := 0
	for i := 0; i < nreq; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		r := results[i]
		if !r.Stats.Converged {
			t.Errorf("request %d did not converge", i)
		}
		if r.Stats.Iterations != refStats[i].Iterations {
			t.Errorf("request %d: %d iterations batched vs %d alone",
				i, r.Stats.Iterations, refStats[i].Iterations)
		}
		if r.BatchSize > 1 {
			batched++
		}
		for j := range refs[i] {
			if r.X[j] != refs[i][j] {
				t.Fatalf("request %d: x[%d] = %v batched, %v alone (batch size %d): not bitwise-identical",
					i, j, r.X[j], refs[i][j], r.BatchSize)
			}
		}
	}
	// The point of the server is coalescing: with 12 concurrent
	// submitters and a 50ms window, at least some must share a batch.
	if batched == 0 {
		t.Error("no request was ever batched; batcher is degenerate")
	}
}

// TestServeLoadShedding verifies the bounded queue sheds with
// ErrOverloaded instead of queueing without bound.
func TestServeLoadShedding(t *testing.T) {
	// The operator sleeps inside every multiply, so the dispatcher
	// *blocks* mid-solve — on any GOMAXPROCS the whole burst below
	// gets to run while one solve is in flight (a merely slow solve is
	// not enough on one core, where the scheduler runs each
	// submit->solve->result chain to completion). MaxBatch 1 keeps it
	// one solve per request; QueueCap 1 means the burst must shed.
	op := &sleepyOp{inner: testMatrix(), d: 2 * time.Millisecond}
	n := op.N()
	e := NewEngine(op, Config{Tol: 1e-8, MaxIter: 500, MaxBatch: 1, QueueCap: 1})
	defer e.Close(context.Background())

	const nreq = 32
	errs := make([]error, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(i))})
		}(i)
	}
	wg.Wait()

	shedCount, okCount := 0, 0
	for _, err := range errs {
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, ErrOverloaded):
			shedCount++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if okCount == 0 {
		t.Error("every request was shed")
	}
	if shedCount == 0 {
		t.Error("no request was shed despite queue cap 1 and a 32-deep burst")
	}
}

// TestServeCancellation: a request whose context dies before dispatch
// is answered ErrCanceled, never solved, and does not wedge the batch.
func TestServeCancellation(t *testing.T) {
	a := testMatrix()
	n := a.N()
	e := NewEngine(a, Config{Tol: 1e-8, MaxIter: 500, MaxWait: 20 * time.Millisecond})
	defer e.Close(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(ctx, Req{B: testRHS(n, 1)}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled submit returned %v, want ErrCanceled", err)
	}

	// A live request sharing the engine still completes.
	r, err := e.Submit(context.Background(), Req{B: testRHS(n, 2)})
	if err != nil || !r.Stats.Converged {
		t.Fatalf("live request after cancel: err=%v converged=%v", err, r.Stats.Converged)
	}
}

// TestServeDeadlineMidSolve: a deadline short enough to expire during
// the solve surfaces as ErrCanceled with no panic.
func TestServeDeadlineMidSolve(t *testing.T) {
	a := bcrs.Random(bcrs.RandomOptions{NB: 600, BlocksPerRow: 8, Seed: 7})
	e := NewEngine(a, Config{Tol: 1e-14, MaxIter: 100000})
	defer e.Close(context.Background())

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
	defer cancel()
	_, err := e.Submit(ctx, Req{B: testRHS(a.N(), 5)})
	if err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("deadline mid-solve returned %v, want ErrCanceled or success", err)
	}
}

// TestServeGracefulDrain: Close flushes queued work, refuses new work,
// and returns cleanly.
func TestServeGracefulDrain(t *testing.T) {
	a := testMatrix()
	n := a.N()
	e := NewEngine(a, Config{Tol: 1e-8, MaxIter: 500, MaxWait: 30 * time.Millisecond})

	const nreq = 6
	results := make([]Result, nreq)
	errs := make([]error, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(i))})
		}(i)
	}
	// Give the submitters time to enqueue, then drain under them.
	time.Sleep(5 * time.Millisecond)
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	for i := 0; i < nreq; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d lost in drain: %v", i, errs[i])
		}
		if !results[i].Stats.Converged {
			t.Errorf("request %d not converged", i)
		}
	}
	if !e.Draining() {
		t.Error("engine does not report draining after Close")
	}
	if _, err := e.Submit(context.Background(), Req{B: testRHS(n, 99)}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit returned %v, want ErrDraining", err)
	}
	// Close is idempotent.
	if err := e.Close(context.Background()); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestServeBadRequestDimension: wrong-length right-hand sides are
// rejected before touching the queue.
func TestServeBadRequestDimension(t *testing.T) {
	e := NewEngine(testMatrix(), Config{})
	defer e.Close(context.Background())
	if _, err := e.Submit(context.Background(), Req{B: make([]float64, 7)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("got %v, want ErrBadRequest", err)
	}
}

// TestServeBlockMode: the block-CG dispatch path converges every
// request to tolerance (tolerance-equivalence, not bitwise).
func TestServeBlockMode(t *testing.T) {
	a := testMatrix()
	n := a.N()
	const tol = 1e-8
	e := NewEngine(a, Config{Tol: tol, MaxIter: 500, Mode: ModeBlock, MaxWait: 30 * time.Millisecond})
	defer e.Close(context.Background())

	const nreq = 5
	results := make([]Result, nreq)
	errs := make([]error, nreq)
	var wg sync.WaitGroup
	for i := 0; i < nreq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), Req{B: testRHS(n, uint64(200+i))})
		}(i)
	}
	wg.Wait()
	for i := 0; i < nreq; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !results[i].Stats.Converged {
			t.Errorf("request %d not converged (residual %g)", i, results[i].Stats.Residual)
		}
		if results[i].Stats.Residual > tol {
			t.Errorf("request %d residual %g > tol %g", i, results[i].Stats.Residual, tol)
		}
	}
}

// TestServePlanWait pins the dispatch-now edges of the batching
// window: full batches and exhausted windows never wait.
func TestServePlanWait(t *testing.T) {
	e := NewEngine(testMatrix(), Config{MaxBatch: 4, MaxWait: time.Millisecond})
	defer e.Close(context.Background())

	mk := func(q int) []*call {
		batch := make([]*call, q)
		for i := range batch {
			batch[i] = &call{ctx: context.Background(), reqs: make([]Req, 1)}
		}
		return batch
	}
	if w := e.planWait(4, mk(4), 0); w > 0 {
		t.Errorf("full batch waits %v, want dispatch now", w)
	}
	if w := e.planWait(2, mk(2), 2*time.Millisecond); w > 0 {
		t.Errorf("exhausted window waits %v, want dispatch now", w)
	}
	if w := e.planWait(1, mk(1), 0); w <= 0 {
		t.Error("fresh singleton refuses to wait; batching can never happen")
	}
	// When the next kernel size is unreachable under MaxBatch there is
	// nothing to wait for: q=2's next width is 4, over a cap of 3.
	e2 := NewEngine(testMatrix(), Config{MaxBatch: 3, MaxWait: time.Millisecond})
	defer e2.Close(context.Background())
	if w := e2.planWait(2, mk(2), 0); w > 0 {
		t.Errorf("q=2 under cap 3 waits %v, but kernel width 4 is unreachable", w)
	}
}
