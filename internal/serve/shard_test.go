package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faults"
	"repro/internal/obs"
)

// fastRetry is the shard transport retry policy for tests: tight
// waits, generous deadline.
func fastRetry(seed uint64) cluster.Backoff {
	return cluster.Backoff{
		Base:        20 * time.Microsecond,
		Max:         200 * time.Microsecond,
		MaxAttempts: 10,
		Deadline:    5 * time.Second,
		Seed:        seed,
	}
}

func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestServeShardSingleBitwise: the acceptance gate for the sharded
// route — an engine with Shards=1 routes every multiply through the
// full split/halo/gather path yet answers bitwise-identically to the
// unsharded engine, both preconditioned by their own IC(0) factor of
// the unpartitioned matrix (the default) and both under PlainCG.
func TestServeShardSingleBitwise(t *testing.T) {
	for _, plainCG := range []bool{false, true} {
		t.Run(map[bool]string{false: "ic0", true: "plain"}[plainCG], func(t *testing.T) {
			testShardSingleBitwise(t, plainCG)
		})
	}
}

func testShardSingleBitwise(t *testing.T, plainCG bool) {
	cfg := Config{Tol: 1e-8, MaxIter: 500, TraceSample: -1, PlainCG: plainCG}
	plain := NewEngine(testMatrix(), cfg)
	shardCfg := cfg
	shardCfg.Shards = 1
	sharded := NewEngine(testMatrix(), shardCfg)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		plain.Close(ctx)
		sharded.Close(ctx)
	}()
	want := map[bool]string{false: "ic0", true: "none"}[plainCG]
	for _, e := range []*Engine{plain, sharded} {
		if got, _ := e.Precond(); got != want {
			t.Fatalf("engine preconditioner %q, want %q", got, want)
		}
	}

	n := plain.N()
	for i := 0; i < 3; i++ {
		b := testRHS(n, uint64(600+i))
		rp, err := plain.Submit(context.Background(), Req{B: b})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sharded.Submit(context.Background(), Req{B: b})
		if err != nil {
			t.Fatal(err)
		}
		if !rp.Stats.Converged || !rs.Stats.Converged {
			t.Fatalf("request %d did not converge on both engines", i)
		}
		for j := range rp.X {
			if math.Float64bits(rp.X[j]) != math.Float64bits(rs.X[j]) {
				t.Fatalf("request %d: element %d differs bitwise: %g vs %g", i, j, rp.X[j], rs.X[j])
			}
		}
	}
}

// TestServeShardInfoAndHealth: /v1/info exposes the shard topology
// (live count, per-shard dedup ratios) and /healthz aggregates over
// the fleet — ok while whole, degraded once a shard is tombstoned.
func TestServeShardInfoAndHealth(t *testing.T) {
	cfg := Config{Tol: 1e-8, MaxIter: 800, Shards: 3, TraceSample: -1}
	cfg.ShardOpts.Faults = mustPlan(t, "crash:node=1,at=2").NewInjector(3)
	cfg.ShardOpts.Retry = fastRetry(1)
	s := startTestServer(t, cfg)
	base := "http://" + s.Addr()
	n := s.Engine.N()

	var info Info
	if resp, data := getBody(t, base+"/v1/info"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/info status %d", resp.StatusCode)
	} else if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Shard == nil || info.Shard.Shards != 3 || info.Shard.Tombstoned != 0 {
		t.Fatalf("fresh shard topology = %+v", info.Shard)
	}
	if len(info.Shard.DedupRatio) != 3 {
		t.Fatalf("dedup ratios = %v, want one per shard", info.Shard.DedupRatio)
	}
	for i, r := range info.Shard.DedupRatio {
		if r <= 0 || r > 1 {
			t.Errorf("shard %d dedup ratio %g out of (0, 1]", i, r)
		}
	}
	health := healthBody(t, base)
	if health["status"] != "ok" {
		t.Fatalf("fresh /healthz = %v", health)
	}

	// The armed crash rule kills shard 1 at its second multiply; the
	// shrink policy re-partitions over the survivors mid-solve and the
	// request still succeeds.
	resp, data := postJSON(t, base+"/v1/solve", SolveRequest{B: testRHS(n, 9), OmitX: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve across the crash: status %d: %s", resp.StatusCode, data)
	}
	var sr SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil || !sr.Converged {
		t.Fatalf("solve across the crash did not converge: %s", data)
	}

	if resp, data := getBody(t, base+"/v1/info"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/info status %d", resp.StatusCode)
	} else if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Shard == nil || info.Shard.Shards != 2 || info.Shard.Tombstoned != 1 {
		t.Fatalf("post-crash shard topology = %+v", info.Shard)
	}
	health = healthBody(t, base)
	if health["status"] != "degraded" {
		t.Fatalf("post-crash /healthz = %v, want degraded", health)
	}
	if health["shards_live"] != float64(2) || health["shards_tombstoned"] != float64(1) {
		t.Fatalf("degraded /healthz counts = %v", health)
	}
}

// TestServeShardTraceSpans: a traced request through a sharded engine
// carries the per-shard hop spans — shardN/shard_solve for each
// shard's strip product and shardN/halo_wait for its halo stall —
// alongside the usual pipeline spans, under the client's request ID.
func TestServeShardTraceSpans(t *testing.T) {
	tracer := obs.NewTracer(32, 4)
	s := startTestServer(t, Config{Tol: 1e-8, MaxIter: 500, Shards: 2, Tracer: tracer})
	base := "http://" + s.Addr()
	n := s.Engine.N()

	const reqID = "shard-trace-1"
	body, _ := json.Marshal(SolveRequest{B: testRHS(n, 21), OmitX: true})
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/solve", strings.NewReader(string(body)))
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(RequestIDHeader) != reqID {
		t.Fatalf("status %d, id %q", resp.StatusCode, resp.Header.Get(RequestIDHeader))
	}
	td := waitTraceDone(t, tracer, reqID)
	spans := map[string]bool{}
	for _, sp := range td.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{
		"queue_wait", "batch_wait", "solve",
		"shard0/shard_solve", "shard1/shard_solve",
		"shard0/halo_wait", "shard1/halo_wait",
	} {
		if !spans[want] {
			t.Errorf("trace is missing the %s span; spans = %+v", want, td.Spans)
		}
	}
	if v, ok := td.Attrs["shards"].(int64); !ok || v != 2 {
		t.Errorf("shards attr = %v, want 2", td.Attrs["shards"])
	}

	// The same spans are visible through /debug/traces?id=.
	resp2, data := getBody(t, base+"/debug/traces?id="+reqID)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?id= status %d", resp2.StatusCode)
	}
	if !strings.Contains(string(data), "shard0/shard_solve") ||
		!strings.Contains(string(data), "halo_wait") {
		t.Errorf("/debug/traces misses shard spans: %s", data)
	}
}

// TestServeShardErrorsEchoID: rejected requests against a sharded
// engine — shed (429), deadline-expired (504), draining (503) — still
// echo the client's X-Request-ID, so failures during shard routing
// stay attributable.
func TestServeShardErrorsEchoID(t *testing.T) {
	// A deliberately tiny admission tier over a slowed shard: shard 0
	// sleeps every multiply, so solves occupy the dispatcher long
	// enough for concurrent arrivals to overflow QueueCap.
	cfg := Config{
		Tol: 1e-10, MaxIter: 2000, MaxBatch: 1, QueueCap: 1,
		Shards: 2, TraceSample: -1,
	}
	cfg.ShardOpts.Faults = mustPlan(t, "slow:node=0,ms=3").NewInjector(7)
	cfg.ShardOpts.Retry = fastRetry(2)
	e := NewEngine(testMatrix(), cfg)
	h := Handler(e)
	n := e.N()

	// 504: the request's deadline (1ms) expires inside the first slowed
	// multiply (>= 3ms).
	body, _ := json.Marshal(SolveRequest{B: testRHS(n, 31), TimeoutMS: 1, OmitX: true})
	req := recordPost(h, string(body), "shard-err-504")
	if req.Code != http.StatusGatewayTimeout || req.Header().Get(RequestIDHeader) != "shard-err-504" {
		t.Errorf("504: code=%d id=%q", req.Code, req.Header().Get(RequestIDHeader))
	}

	// 429: flood more concurrent solves than dispatcher + queue can
	// hold; the overflow is shed, each rejection echoing its own ID.
	const flood = 8
	var wg sync.WaitGroup
	codes := make([]int, flood)
	ids := make([]string, flood)
	for g := 0; g < flood; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("shard-err-flood-%d", g)
			body, _ := json.Marshal(SolveRequest{B: testRHS(n, uint64(700+g)), OmitX: true})
			w := recordPost(h, string(body), id)
			codes[g] = w.Code
			ids[g] = w.Header().Get(RequestIDHeader)
		}(g)
	}
	wg.Wait()
	sheds := 0
	for g := 0; g < flood; g++ {
		if ids[g] != fmt.Sprintf("shard-err-flood-%d", g) {
			t.Errorf("flood %d: echoed id %q", g, ids[g])
		}
		switch codes[g] {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			sheds++
		default:
			t.Errorf("flood %d: unexpected status %d", g, codes[g])
		}
	}
	if sheds == 0 {
		t.Error("flood produced no 429s; queue never overflowed")
	}

	// 503: drained engines reject with the ID intact.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(SolveRequest{B: testRHS(n, 32), OmitX: true})
	w := recordPost(h, string(body), "shard-err-503")
	if w.Code != http.StatusServiceUnavailable || w.Header().Get(RequestIDHeader) != "shard-err-503" {
		t.Errorf("503: code=%d id=%q", w.Code, w.Header().Get(RequestIDHeader))
	}
}

// TestServeShardChaosHTTP: the full chaos preset on the shard
// transport — including the shard-1 hard crash — behind the HTTP
// tier: every solve answers 200 and converges, and the fleet reports
// the tombstone afterwards.
func TestServeShardChaosHTTP(t *testing.T) {
	cfg := Config{Tol: 1e-8, MaxIter: 800, Shards: 4, TraceSample: -1}
	inj := faults.Chaos().NewInjector(13)
	cfg.ShardOpts.Faults = inj
	cfg.ShardOpts.Retry = fastRetry(4)
	s := startTestServer(t, cfg)
	base := "http://" + s.Addr()
	n := s.Engine.N()

	for i := 0; i < 8; i++ {
		resp, data := postJSON(t, base+"/v1/solve", SolveRequest{B: testRHS(n, uint64(800+i)), OmitX: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chaos solve %d: status %d: %s", i, resp.StatusCode, data)
		}
		var sr SolveResponse
		if err := json.Unmarshal(data, &sr); err != nil || !sr.Converged {
			t.Fatalf("chaos solve %d did not converge: %s", i, data)
		}
	}
	if inj.InjectedTotal() == 0 {
		t.Error("chaos run injected nothing")
	}
	top, ok := s.Engine.ShardTopology()
	if !ok {
		t.Fatal("engine is not sharded")
	}
	if top.Tombstoned == 0 {
		t.Error("chaos crash rule never fired behind HTTP")
	}
}

// recordPost runs one POST /v1/solve through the handler with the
// given request ID and returns the recorded response.
func recordPost(h http.Handler, body, id string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
	req.Header.Set(RequestIDHeader, id)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// getBody GETs a URL and returns the response and body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// healthBody GETs /healthz and decodes the JSON body.
func healthBody(t *testing.T, base string) map[string]any {
	t.Helper()
	_, data := getBody(t, base+"/healthz")
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}
