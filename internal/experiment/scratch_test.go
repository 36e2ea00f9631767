package experiment

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// runConfigs is a mixed batch exercising every scratch-reset path:
// golden, smart attack, random attack, forced attack, and different
// scenarios (different cruise speeds) back to back.
func scratchTestConfigs() []RunConfig {
	return []RunConfig{
		{Scenario: scenario.DS1, Seed: 11},
		{Scenario: scenario.DS2, Seed: 12,
			Attack: AttackSetup{Mode: core.ModeSmart, PreferDisappearFor: sim.ClassPedestrian}},
		{Scenario: scenario.DS1, Seed: 13,
			Attack: AttackSetup{Mode: core.ModeRandom}},
		{Scenario: scenario.DS2, Seed: 14,
			Attack: AttackSetup{Mode: core.ModeSmart, PreferDisappearFor: sim.ClassPedestrian,
				Forced: &ForcedPlan{DeltaInject: 20, K: 31}}},
		{Scenario: scenario.DS4, Seed: 15,
			Attack: AttackSetup{Mode: core.ModeSmart, PreferDisappearFor: sim.ClassVehicle}},
	}
}

// sameRunResult compares run results exactly, treating NaN as equal to
// NaN (non-smart modes mark "no oracle forecast" with NaN, which
// reflect.DeepEqual would report as a difference).
func sameRunResult(a, b RunResult) bool {
	for _, f := range []*[2]float64{
		{a.PredictedDelta, b.PredictedDelta},
		{a.DeltaAtLaunch, b.DeltaAtLaunch},
		{a.RealizedDelta, b.RealizedDelta},
	} {
		if math.IsNaN(f[0]) != math.IsNaN(f[1]) {
			return false
		}
	}
	norm := func(r *RunResult) {
		for _, p := range []*float64{&r.PredictedDelta, &r.DeltaAtLaunch, &r.RealizedDelta} {
			if math.IsNaN(*p) {
				*p = 0
			}
		}
	}
	norm(&a)
	norm(&b)
	return reflect.DeepEqual(a, b)
}

// TestScratchReuseBitIdentical proves episode pooling is
// observationally invisible: running a mixed batch of episodes
// back-to-back on ONE shared Scratch produces results deeply equal to
// running each episode on a fresh Scratch.
func TestScratchReuseBitIdentical(t *testing.T) {
	cfgs := scratchTestConfigs()

	// Fresh scratch per episode (the historical semantics).
	fresh := make([]RunResult, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		fresh[i], err = RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("fresh run %d: %v", i, err)
		}
	}

	// One shared scratch for the whole batch, via a 1-worker engine.
	eng := withEpisodeScratch(engine.New(engine.WithWorkers(1)))
	pooled, err := engine.Map(eng, 0, cfgs, func(ctx context.Context, _ int64, cfg RunConfig) (RunResult, error) {
		return RunCtx(ctx, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range pooled {
		if !sameRunResult(got, fresh[i]) {
			t.Errorf("episode %d: pooled run differs from fresh run:\npooled: %+v\nfresh:  %+v", i, got, fresh[i])
		}
	}
}

// testOracles builds a small untrained NN oracle set — enough to
// exercise the per-worker clone + pooled inference path.
func testOracles() map[core.Vector]core.Oracle {
	rng := stats.NewRNG(5)
	return map[core.Vector]core.Oracle{
		core.VectorDisappear: &core.NNOracle{Net: nn.NewRegressor(core.EncodeDim, rng)},
		core.VectorMoveOut:   &core.NNOracle{Net: nn.NewRegressor(core.EncodeDim, rng)},
	}
}

// TestScratchConcurrentWorkersIsolated is the -race proof of worker
// isolation: a multi-worker campaign with shared trained-oracle input
// must race-cleanly clone per worker and produce the same aggregate as
// a single-worker run. Run with -race (the CI race job does).
func TestScratchConcurrentWorkersIsolated(t *testing.T) {
	oracles := testOracles()
	c := Campaign{
		Name:               "scratch-iso",
		Scenario:           scenario.DS2,
		Mode:               core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian,
		ExpectCrashes:      true,
	}
	const runs = 8
	single, err := RunCampaignOn(engine.New(engine.WithWorkers(1)), c, runs, 900, oracles)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunCampaignOn(engine.New(engine.WithWorkers(4)), c, runs, 900, oracles)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single.CampaignRecord, multi.CampaignRecord) {
		t.Errorf("worker count changed the aggregate:\n1 worker:  %+v\n4 workers: %+v",
			single.CampaignRecord, multi.CampaignRecord)
	}
}

// TestScratchOracleCloneOncePerWorker verifies the scratch clones a
// campaign's oracle set once and reuses the clones across that
// worker's episodes, rebuilding only when the set changes.
func TestScratchOracleCloneOncePerWorker(t *testing.T) {
	s := NewScratch()
	src := testOracles()
	first := s.oraclesFor(src)
	if first == nil || first[core.VectorDisappear] == src[core.VectorDisappear] {
		t.Fatal("oraclesFor must clone the source oracles")
	}
	if second := s.oraclesFor(src); reflect.ValueOf(second).Pointer() != reflect.ValueOf(first).Pointer() {
		t.Error("same source set must reuse the existing clones")
	}
	other := testOracles()
	third := s.oraclesFor(other)
	if reflect.ValueOf(third).Pointer() == reflect.ValueOf(first).Pointer() {
		t.Error("a different source set must re-clone")
	}
	if s.oraclesFor(nil) != nil {
		t.Error("nil source must map to nil oracles")
	}
	gen := s.oracleGen
	if s.oraclesFor(nil) != nil || s.oracleGen != gen {
		t.Error("repeated nil source must not churn the generation")
	}
}

// TestMalwareResetMatchesNew verifies a Reset malware reproduces the
// random-mode draws a fresh construction makes from the same stream,
// so recycled malware episodes stay bit-identical.
func TestMalwareResetMatchesNew(t *testing.T) {
	for _, seed := range []int64{1, 2, 77} {
		a, err := RunCtx(context.Background(), RunConfig{
			Scenario: scenario.DS5, Seed: seed,
			Attack: AttackSetup{Mode: core.ModeRandom},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Same episode on a scratch that already hosted a random-mode
		// malware (forces the Reset path).
		eng := withEpisodeScratch(engine.New(engine.WithWorkers(1)))
		cfgs := []RunConfig{
			{Scenario: scenario.DS5, Seed: seed + 1000, Attack: AttackSetup{Mode: core.ModeRandom}},
			{Scenario: scenario.DS5, Seed: seed, Attack: AttackSetup{Mode: core.ModeRandom}},
		}
		rs, err := engine.Map(eng, 0, cfgs, func(ctx context.Context, _ int64, cfg RunConfig) (RunResult, error) {
			return RunCtx(ctx, cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := rs[1]; !sameRunResult(got, a) {
			t.Errorf("seed %d: episode after malware reset differs:\nreset: %+v\nfresh: %+v", seed, got, a)
		}
	}
}
