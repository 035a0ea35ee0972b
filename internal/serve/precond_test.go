package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bcrs"
	"repro/internal/blas"
	"repro/internal/solver"
)

// TestServeEnginePrecondSelection: a plain matrix operator gets the
// engine's own IC(0) factor; PlainCG, half-storage and wrapped
// operators serve plain CG; an explicit Config.Precond is kept.
func TestServeEnginePrecondSelection(t *testing.T) {
	a := testMatrix()
	sm, err := bcrs.NewSym(a)
	if err != nil {
		t.Fatal(err)
	}
	jacobi := solver.NewBlockJacobi(a)
	cases := []struct {
		name string
		op   solver.BlockOperator
		cfg  Config
		want string
	}{
		{"matrix", a, Config{}, "ic0"},
		{"plain", a, Config{PlainCG: true}, "none"},
		{"symmetric", sm, Config{}, "none"},
		{"wrapped", &sleepyOp{inner: a}, Config{}, "none"},
		{"custom", a, Config{Precond: jacobi}, "custom"},
		{"custom-plain", a, Config{Precond: jacobi, PlainCG: true}, "custom"},
	}
	for _, tc := range cases {
		e := NewEngine(tc.op, tc.cfg)
		got, factor := e.Precond()
		pc := e.Config().Precond
		e.Close(context.Background())
		if got != tc.want {
			t.Errorf("%s: preconditioner %q, want %q", tc.name, got, tc.want)
		}
		switch tc.want {
		case "ic0":
			if _, ok := pc.(*solver.IC0); !ok || factor <= 0 {
				t.Errorf("%s: engine precond %T, factor time %v", tc.name, pc, factor)
			}
		case "none":
			if pc != nil || factor != 0 {
				t.Errorf("%s: engine precond %T, factor time %v, want none", tc.name, pc, factor)
			}
		case "custom":
			if pc != solver.Preconditioner(jacobi) || factor != 0 {
				t.Errorf("%s: explicit Precond replaced by %T", tc.name, pc)
			}
		}
	}
}

// TestServePrecondFallbackOnBreakdown: a matrix IC(0) cannot factor
// (negative diagonal, no shift rescues it) leaves the engine serving
// plain CG and counts the event.
func TestServePrecondFallbackOnBreakdown(t *testing.T) {
	const nb = 20
	bld := bcrs.NewBuilder(nb)
	for i := 0; i < nb; i++ {
		bld.AddBlock(i, i, blas.Ident3().ScaleM(-2))
	}
	a := bld.Build()
	before := precondFallback.Value()
	e := NewEngine(a, Config{})
	defer e.Close(context.Background())
	if got, _ := e.Precond(); got != "none" || e.Config().Precond != nil {
		t.Fatalf("breakdown left preconditioner %q (%T)", got, e.Config().Precond)
	}
	if precondFallback.Value() != before+1 {
		t.Fatalf("serve_precond_fallback_total moved by %d, want 1", precondFallback.Value()-before)
	}
	b := testRHS(a.N(), 9)
	r, err := e.Submit(context.Background(), Req{B: b})
	if err != nil || !r.Stats.Converged {
		t.Fatalf("plain-CG fallback solve: err=%v stats=%+v", err, r.Stats)
	}
	for i := range b {
		if r.X[i] != -b[i]/2 {
			t.Fatalf("x[%d] = %v, want %v", i, r.X[i], -b[i]/2)
		}
	}
}

// TestServeInfoReportsPrecond: /v1/info names the preconditioner and
// the factor time.
func TestServeInfoReportsPrecond(t *testing.T) {
	for _, plain := range []bool{false, true} {
		e := NewEngine(testMatrix(), Config{PlainCG: plain})
		rec := httptest.NewRecorder()
		Handler(e).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/info", nil))
		e.Close(context.Background())
		var info Info
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		switch {
		case plain && (info.Precond != "none" || info.PrecondFactorMS != 0):
			t.Errorf("PlainCG info: precond %q factor %gms", info.Precond, info.PrecondFactorMS)
		case !plain && (info.Precond != "ic0" || info.PrecondFactorMS <= 0):
			t.Errorf("default info: precond %q factor %gms", info.Precond, info.PrecondFactorMS)
		}
	}
}

// TestServeBudgetClamp pins how a client's tol and max_iter resolve:
// zero takes the engine default, and anything past the engine's bounds
// is clamped to them.
func TestServeBudgetClamp(t *testing.T) {
	e := NewEngine(testMatrix(), Config{Tol: 1e-8, MaxIter: 300})
	defer e.Close(context.Background())
	cases := []struct {
		req     Req
		tol     float64
		maxIter int
	}{
		{Req{}, 1e-8, 300},
		{Req{Tol: 1e-300, MaxIter: 1e9}, minTol, 300},
		{Req{Tol: 5, MaxIter: 7}, maxTol, 7},
		{Req{Tol: math.Inf(1)}, maxTol, 300},
		{Req{Tol: 1e-3, MaxIter: 300}, 1e-3, 300},
	}
	for _, tc := range cases {
		tol, maxIter := e.budget(tc.req)
		if tol != tc.tol || maxIter != tc.maxIter {
			t.Errorf("budget(tol=%g, max_iter=%d) = %g, %d; want %g, %d",
				tc.req.Tol, tc.req.MaxIter, tol, maxIter, tc.tol, tc.maxIter)
		}
	}
	if maxTol != math.Nextafter(1, 0) {
		t.Fatalf("maxTol = %v, want the float64 just below 1", maxTol)
	}
	// The default cap is the solver's own default budget, 10*N.
	e2 := NewEngine(testMatrix(), Config{})
	defer e2.Close(context.Background())
	if got := e2.Config().MaxIter; got != 10*e2.N() {
		t.Fatalf("default MaxIter %d, want %d", got, 10*e2.N())
	}
}

// TestServeRejectsNegativeBudgets: negative or NaN tol and negative
// max_iter fail Submit and SubmitEnsemble with ErrBadRequest.
func TestServeRejectsNegativeBudgets(t *testing.T) {
	e := NewEngine(testMatrix(), Config{})
	defer e.Close(context.Background())
	b := testRHS(e.N(), 1)
	for _, r := range []Req{{B: b, Tol: -1}, {B: b, Tol: math.NaN()}, {B: b, MaxIter: -5}} {
		if _, err := e.Submit(context.Background(), r); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Submit(tol=%v, max_iter=%d) = %v, want ErrBadRequest", r.Tol, r.MaxIter, err)
		}
		if _, err := e.SubmitEnsemble(context.Background(), []Req{{B: b}, r}); !errors.Is(err, ErrBadRequest) {
			t.Errorf("SubmitEnsemble member (tol=%v, max_iter=%d) = %v, want ErrBadRequest", r.Tol, r.MaxIter, err)
		}
	}
}

// TestServeHTTPRejectsNegativeFields: all three solve endpoints answer
// 400 to a negative tol, max_iter or timeout_ms.
func TestServeHTTPRejectsNegativeFields(t *testing.T) {
	e := NewEngine(testMatrix(), Config{})
	defer e.Close(context.Background())
	h := Handler(e)
	for _, path := range []string{"/v1/solve", "/v1/sdstep", "/v1/ensemble"} {
		for _, field := range []string{`"tol":-1`, `"max_iter":-3`, `"timeout_ms":-10`} {
			body := `{"seed":1,"dt":0.01,` + field + `}`
			if path == "/v1/ensemble" {
				body = `{"members":2,"seed":1,` + field + `}`
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", path, body, rec.Code, rec.Body)
			}
		}
	}
}

// TestServeHTTPBodyLimit: a body larger than its explicit vectors
// could need is refused with 413 on every solve endpoint, never a 5xx,
// while a legitimate explicit vector written at full precision passes.
func TestServeHTTPBodyLimit(t *testing.T) {
	e := NewEngine(testMatrix(), Config{Tol: 1e-8, MaxIter: 500})
	defer e.Close(context.Background())
	h := Handler(e)
	n := e.N()
	for _, tc := range []struct {
		path, open, close string
		vectors           int
	}{
		{"/v1/solve", `{"b":[`, `0]}`, 1},
		{"/v1/sdstep", `{"dt":1,"f":[`, `0]}`, 1},
		{"/v1/ensemble", `{"bs":[[`, `0]]}`, e.Config().MaxBatch},
	} {
		var buf bytes.Buffer
		buf.WriteString(tc.open)
		for buf.Len() <= int(bodyLimit(e, tc.vectors)) {
			buf.WriteString("0,")
		}
		buf.WriteString(tc.close)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, &buf))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized body: status %d, want 413 (%s)", tc.path, rec.Code, rec.Body)
		}
	}

	// The longest float64 encodings still fit.
	b := make([]float64, n)
	for i := range b {
		b[i] = -1.2345678901234567e-100 * float64(1+i%7)
	}
	var buf bytes.Buffer
	buf.WriteString(`{"b":[`)
	for i, v := range b {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	buf.WriteString(`],"omit_x":true}`)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", &buf))
	if rec.Code != http.StatusOK {
		t.Fatalf("full-precision explicit b: status %d (%s)", rec.Code, rec.Body)
	}
}

// TestServeAdversarialBudgetCannotPinBatch: a request asking for an
// unreachable tolerance and a billion iterations, co-batched with
// honest requests, is clamped to the engine's budget. Its batch-mates'
// iterations and answers are bitwise those of their lone solves, and
// the engine goes on to answer a later request.
func TestServeAdversarialBudgetCannotPinBatch(t *testing.T) {
	a := testMatrix()
	n := a.N()
	const tol, maxIter = 1e-8, 20 // honest solves take ~4 iterations; 1e-300 would take ~150
	e := NewEngine(a, Config{Tol: tol, MaxIter: maxIter, MaxWait: 50 * time.Millisecond})
	defer e.Close(context.Background())

	const honest = 6
	results := make([]Result, honest+1)
	errs := make([]error, honest+1)
	var wg sync.WaitGroup
	for i := 0; i <= honest; i++ {
		req := Req{B: testRHS(n, uint64(900+i))}
		if i == honest {
			req.Tol, req.MaxIter = 1e-300, 1e9
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Submit(context.Background(), req)
		}(i)
	}
	wg.Wait()

	shared := false
	for i := 0; i <= honest; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].BatchSize > 1 {
			shared = true
		}
	}
	if !shared {
		t.Fatal("no request was co-batched; the test exercises nothing")
	}
	if it := results[honest].Stats.Iterations; it > maxIter {
		t.Fatalf("adversarial request ran %d iterations past the engine cap %d", it, maxIter)
	}
	for i := 0; i < honest; i++ {
		ref, st := loneSolve(e, a, testRHS(n, uint64(900+i)), tol, maxIter)
		r := results[i]
		if r.Stats.Iterations != st.Iterations || !r.Stats.Converged {
			t.Errorf("request %d: %d iterations (converged %v) batched, %d alone",
				i, r.Stats.Iterations, r.Stats.Converged, st.Iterations)
		}
		for j := range ref {
			if math.Float64bits(r.X[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("request %d: x[%d] differs bitwise from its lone solve (batch %d)", i, j, r.BatchSize)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if r, err := e.Submit(ctx, Req{B: testRHS(n, 999)}); err != nil || !r.Stats.Converged {
		t.Fatalf("later request: err=%v stats=%+v", err, r.Stats)
	}
}
