package core

import (
	"testing"

	"repro/internal/bcrs"
	"repro/internal/cluster/faults"
	"repro/internal/obs"
)

// faultyToy is a toyConfig whose Build panics with a transport fault
// on one chosen call (counted across the Displaced chain): a
// mid-chunk crash on the single-node path, where the chunk
// preconditioner is live.
type faultyToy struct {
	*toyConfig
	calls   *int
	crashAt int
}

func (c faultyToy) Build() *bcrs.Matrix {
	*c.calls++
	if *c.calls == c.crashAt {
		panic(&faults.Error{Kind: faults.Crash, Node: -1, Src: -1, Dst: -1, Msg: "injected build crash"})
	}
	return c.toyConfig.Build()
}

func (c faultyToy) Displaced(u []float64, dt float64) Configuration {
	return faultyToy{c.toyConfig.Displaced(u, dt).(*toyConfig), c.calls, c.crashAt}
}

// A fault in the middle of a preconditioned chunk must replay onto
// the clean run's trajectory bitwise: the replay refactors IC(0) from
// the restored R_0 and no factor leaks across the attempt.
func TestRecoveryReplayMatchesCleanRunChunkPrecond(t *testing.T) {
	const steps = 8
	cfg := Config{Dt: 0.05, M: 4, Seed: 9}

	clean := NewRunner(newToy(24, 6), cfg)
	if err := clean.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}

	calls := 0
	// Each chunk builds R_0, then a midpoint matrix per step and a
	// fresh matrix per later step: call 12 lands inside the second
	// chunk, after its factor exists.
	chaosCfg := cfg
	chaosCfg.Recovery = &Recovery{MaxRetries: 2}
	chaos := NewRunner(faultyToy{newToy(24, 6), &calls, 12}, chaosCfg)
	reg := obs.NewRegistry()
	chaos.Obs = reg
	if err := chaos.RunMRHS(steps); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(obs.Label("core_fault_recoveries_total", "phase", "chunk")).Value() != 1 {
		t.Fatal("want exactly one chunk recovery")
	}
	if chaos.pc != nil {
		t.Fatal("chunk preconditioner outlived its chunk")
	}
	sc, sf := toyState(clean), chaos.Current().(faultyToy).state
	for i := range sc {
		if sc[i] != sf[i] {
			t.Fatalf("replayed trajectory diverged at %d: %g != %g", i, sf[i], sc[i])
		}
	}
	if clean.BlockIters != chaos.BlockIters {
		t.Fatalf("block iterations %d (clean) vs %d (replayed)", clean.BlockIters, chaos.BlockIters)
	}
}

// PlainCG and the default path solve the same systems to the same
// tolerance; the factor only changes how many iterations that takes.
func TestChunkPrecondCutsBlockIterations(t *testing.T) {
	run := func(plain bool) *Runner {
		r := NewRunner(newToy(60, 2), Config{Dt: 0.05, M: 6, Seed: 3, PlainCG: plain})
		if err := r.RunMRHS(12); err != nil {
			t.Fatal(err)
		}
		return r
	}
	pre, plain := run(false), run(true)
	if pre.BlockIters >= plain.BlockIters {
		t.Fatalf("block iterations %d with the chunk factor, %d without", pre.BlockIters, plain.BlockIters)
	}
}
