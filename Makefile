GO ?= go

# The perf artifacts the regression gate watches, and where their
# committed (HEAD) versions are staged for comparison.
BENCH_FILES ?= BENCH_serve.json BENCH_symm.json BENCH_parallel.json BENCH_ensemble.json BENCH_shard.json BENCH_recycle.json
BENCH_BASELINE_DIR ?= .bench-baseline

.PHONY: ci docs-gate vet build test perfbench-test race race-kernels chaos serial serve-smoke shard-smoke bench bench-snapshot bench-scaling bench-serve bench-symm bench-ensemble bench-shard bench-recycle bench-diff

# ci is the gate: vet, build everything, the full test suite under
# the race detector (the obs hot paths are lock-free and the worker
# pool is the most concurrent code in the tree; -race is what
# validates them), the seeded fault-injection suite, the serving
# suite (batched-vs-unbatched bitwise equivalence, shedding,
# cancellation, drain), one serial pass with GOMAXPROCS=1 to prove
# nothing depends on real parallelism, and the advisory perf-
# regression gate over the BENCH_*.json artifacts (fails only on >2x
# regressions; warns otherwise; skips files with no baseline), plus
# the repository benchmark's own tests at test size, so a stepper or
# solver change that breaks the benchmark's answer and checksum checks
# fails here rather than in the benchmark run.
ci: vet build docs-gate race-kernels race chaos serve-smoke shard-smoke serial perfbench-test bench-diff

# docs-gate fails when an internal/ package lacks a package comment or
# a tracked markdown file has a broken relative link — documentation
# drift is a build failure, not a review nit.
docs-gate:
	$(GO) run ./cmd/docs-gate

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench-test runs the benchmark module's tests (perfbench/ is its
# own Go module, so the root ./... never reaches it): every workload
# at test size, traced and untraced, with its answer and trajectory-
# checksum checks.
perfbench-test:
	cd perfbench && $(GO) test -short ./...

race:
	$(GO) test -race ./...

# race-kernels is the fast fail-first race gate over the packages the
# parallel symmetric GSPMV touches — the two-phase scatter/reduce
# schedule in bcrs, the worker pool it runs on, and the serving
# dispatcher that reuses solver scratch across batches — plus the obs
# layer, whose spans and traces cross the submitter/dispatcher
# goroutine boundary and whose scrape endpoints are hammered
# concurrently with solving, and the solver layer, whose recycler
# publishes atomic stats snapshots read concurrently by /v1/info while
# the dispatcher mutates the basis. Short mode keeps it seconds-cheap
# so the full -race suite only runs once this passes.
race-kernels:
	$(GO) test -race -short ./internal/bcrs/ ./internal/parallel/ ./internal/serve/ ./internal/shard/ ./internal/obs/ ./internal/solver/

# chaos runs the fault-injection and recovery tests — seeded chaos
# runs must reproduce clean-run trajectories bitwise — under -race,
# since the faulty transport is the most concurrent code in the tree.
chaos:
	$(GO) test -race -run 'Chaos|Recovery|Fault|Fallback|Backoff|Crash|Degrad' ./internal/cluster/... ./internal/core/ ./internal/sd/ ./internal/solver/ ./internal/shard/

# serial runs the full suite pinned to one OS thread: the worker pool
# must produce identical results (and never deadlock) when the runtime
# has no parallelism to give it.
serial:
	GOMAXPROCS=1 $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-snapshot produces the BENCH_obs.json artifact two ways: the
# quick test-fixture route (BENCH_OBS_JSON env var) and the heavier
# gspmv-bench sweep with kernel counters — then the step-scaling
# artifact alongside it.
bench-snapshot: bench-scaling
	BENCH_OBS_JSON=$(CURDIR)/BENCH_obs.json $(GO) test -run TestBenchObsSnapshot .
	$(GO) run ./cmd/gspmv-bench -nb 10000 -m 1,2,4,8,16 -obs-json $(CURDIR)/BENCH_obs.json

# serve-smoke runs the batching-server suite (engine + HTTP) under
# -race: the dispatcher/submitter handoff and the drain path are the
# concurrency-heavy parts, and the bitwise batched-vs-unbatched
# equivalence test is the serving layer's core guarantee.
serve-smoke:
	$(GO) test -race -run 'TestServe' ./internal/serve/

# shard-smoke runs the sharded-serve suite under -race: the fleet's
# split/halo/gather determinism (1-shard bitwise identity with the
# plain engine, multi-shard bitwise stability), crash-shrink recovery,
# and the HTTP surface over a sharded engine (topology in /v1/info,
# degraded /healthz, per-shard trace spans, ID echo on rejections).
shard-smoke:
	$(GO) test -race -run 'TestFleet|TestShard|TestServeShard' ./internal/shard/ ./internal/serve/

# bench-diff is the advisory perf-regression gate: stage the
# committed (HEAD) BENCH_*.json artifacts as baselines, then grade
# the working-tree artifacts against them with direction-aware
# per-metric tolerances. Only >2x regressions fail; smaller moves
# warn; artifacts without a committed baseline (fresh benchmarks,
# no git) skip cleanly.
bench-diff:
	@mkdir -p $(BENCH_BASELINE_DIR)
	@for f in $(BENCH_FILES); do \
		git show HEAD:$$f > $(BENCH_BASELINE_DIR)/$$f 2>/dev/null || rm -f $(BENCH_BASELINE_DIR)/$$f; \
	done
	$(GO) run ./cmd/bench-diff -baseline-dir $(BENCH_BASELINE_DIR) $(BENCH_FILES)

# bench-serve measures the batching server's operating curve — open-
# loop Poisson load sweep against a sequential m=1 CG baseline — and
# writes the BENCH_serve.json artifact (throughput, p50/p95/p99,
# mean batch size, shed rate per load factor; "best" holds the
# saturating-load acceptance numbers), then prints the regression
# diff against the committed baseline (advisory: the fresh run is
# the artifact, the diff is the reviewer's context).
bench-serve:
	$(GO) run ./cmd/serve-bench -json $(CURDIR)/BENCH_serve.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_serve.json

# bench-ensemble sweeps fused K-wide ensemble requests (K member
# right-hand sides per atomic submission) against the same sequential
# m=1 baseline, at ensemble-request rates below saturation, and writes
# BENCH_ensemble.json. "best_low_load" holds the acceptance number:
# member-solve speedup >= 1 at load_factor < 2, the regime where
# single-RHS traffic batching regresses below 1x.
bench-ensemble:
	$(GO) run ./cmd/serve-bench -ensemble 1,4,8,16 -load 0.5,1,1.5 -json $(CURDIR)/BENCH_ensemble.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_ensemble.json

# bench-shard sweeps the serve-tier shard counts over the rate sweep
# and writes BENCH_shard.json: per-shard-count throughput and latency
# against the same m=1 baseline, the strip layout (owned/halo rows,
# per-strip dedup ratio), "shard_speedup" (largest count over 1
# shard; reads against "cores" — a single-core host measures routing
# overhead, not scaling), and the shard-kill chaos pass, which must
# complete every solve on the shrunk fleet ("completed_degraded").
bench-shard:
	$(GO) run ./cmd/serve-bench -nb 3000 -load 0.5,2,8 -shards 1,2,4 -json $(CURDIR)/BENCH_shard.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_shard.json

# bench-symm races the parallel half-storage symmetric GSPMV against
# the general kernels at equal thread counts on a banded (RCM-like,
# -nowrap) matrix and writes BENCH_symm.json: per-(threads, m)
# measured and model-predicted speedups (the auto cache-blocked plan
# plus the forced single-pass and -dedup compressed ablations, so each
# point carries tiled/tile_cols/dedup_ratio), measured r(m) vs
# r_sym(m), and the bitwise-determinism verdict. "best" holds the
# acceptance number: the top symmetric speedup at m >= 8.
# The band models an RCM-ordered short-cutoff lubrication topology
# (the generator's old nb/16 default put >60% of the multiply into
# scatter-window stalls, an artifact no ordered physical matrix
# shows); -unique models the repeated-interaction-tensor regime the
# -dedup ablation compresses.
bench-symm:
	$(GO) run ./cmd/gspmv-bench -symmetric -nowrap -nb 150000 -bpr 20 -band 1200 -m 1,2,4,8,16,32 -threads 1,2 -dedup -unique 1024 -json $(CURDIR)/BENCH_symm.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_symm.json

# bench-recycle measures cross-solve Krylov recycling end-to-end and
# writes BENCH_recycle.json: paired SD runs (recycled vs plain) in the
# slowly-varying regime, graded by sd.iters_saved_frac (the fraction
# of first-solve iterations the deflation basis removes; acceptance
# >= 0.20), and a serve-tier load sweep with similar right-hand sides
# run twice per point (recycling off/on), graded by
# serve.recycle_p50_speedup (worst-case p50_off/p50_on; acceptance
# >= 1 — the cost model auto-disables recycling wherever the projector
# would cost more than the iterations it saves).
bench-recycle:
	$(GO) run ./cmd/recycle-bench -json $(CURDIR)/BENCH_recycle.json
	-$(MAKE) bench-diff BENCH_FILES=BENCH_recycle.json

# bench-scaling sweeps the worker-pool size over full MRHS steps and
# writes BENCH_parallel.json: per-phase seconds, speedup, and parallel
# efficiency per thread count (1,2,4,... up to NumCPU by default).
bench-scaling:
	$(GO) run ./cmd/scaling-bench -n 1000 -steps 4 -m 16 -json $(CURDIR)/BENCH_parallel.json
