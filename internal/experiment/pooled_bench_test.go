package experiment

import (
	"context"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sim"
)

// pooledBenchCases are the two BenchmarkEpisode shapes, run here the
// way campaigns actually execute them: on an engine worker's reusable
// Scratch with trace recycling, instead of a throwaway Scratch per
// call.
var pooledBenchCases = []struct {
	name string
	cfg  RunConfig
}{
	{"golden-DS1", RunConfig{Scenario: scenario.DS1, recycleTrace: true}},
	{"attacked-DS2", RunConfig{
		Scenario:     scenario.DS2,
		Attack:       AttackSetup{Mode: core.ModeSmart, PreferDisappearFor: sim.ClassPedestrian},
		recycleTrace: true,
	}},
}

// pooledJobs builds n episode jobs (seeds 0..n-1) for cfg.
func pooledJobs(cfg RunConfig, n int) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		c := cfg
		c.Seed = int64(i)
		jobs[i] = func(ctx context.Context, _ int64) (any, error) {
			return RunCtx(ctx, c)
		}
	}
	return jobs
}

// runPooled ranges the batch through StreamOrdered and returns the
// first job error by index.
func runPooled(eng *engine.Engine, jobs []engine.Job) error {
	for r := range eng.StreamOrdered(0, jobs) {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// BenchmarkEpisodePooled measures episodes back to back on one
// worker's Scratch — the campaign execution path. The allocs/op gap
// against BenchmarkEpisode (which rebuilds a Scratch per episode) is
// the construction cost that episode-boundary pooling removes; what
// remains is the true per-episode floor (result records, behavior
// variance in actor counts, map iteration order scratch).
func BenchmarkEpisodePooled(b *testing.B) {
	for _, c := range pooledBenchCases {
		b.Run(c.name, func(b *testing.B) {
			eng := withEpisodeScratch(engine.New(engine.WithWorkers(1)))
			jobs := pooledJobs(c.cfg, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			if err := runPooled(eng, jobs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
		})
	}
}

// TestPooledEpisodeAllocBudget gates the episode-boundary pooling win:
// steady-state allocations per episode on the campaign path must stay
// at least 50% below the fresh-Scratch figures BenchmarkEpisode
// commits to BENCH_after.json (295 golden / 467 attacked). The
// per-episode rate is measured as a slope — allocations for a 40- and
// an 8-episode batch on identical fresh engines, divided by the 32
// extra episodes — so one-time Scratch construction (pipeline, oracle
// clones, arena) cancels out exactly.
func TestPooledEpisodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	// Measured steady state is ~5-6 allocs/episode; 40 leaves headroom
	// for runtime/GC jitter while still sitting ~7x below the 50%
	// acceptance line (147/233).
	budgets := map[string]float64{
		"golden-DS1":   40, // fresh path: ~295 allocs/episode
		"attacked-DS2": 40, // fresh path: ~467 allocs/episode
	}
	for _, c := range pooledBenchCases {
		t.Run(c.name, func(t *testing.T) {
			batch := func(n int) float64 {
				eng := withEpisodeScratch(engine.New(engine.WithWorkers(1)))
				jobs := pooledJobs(c.cfg, n)
				return testing.AllocsPerRun(3, func() {
					if err := runPooled(eng, jobs); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := batch(8), batch(40)
			perEp := (large - small) / 32
			if budget := budgets[c.name]; perEp > budget {
				t.Errorf("steady-state allocs/episode = %.1f, budget %.0f (batch8=%.0f batch40=%.0f)",
					perEp, budget, small, large)
			} else {
				t.Logf("steady-state allocs/episode = %.1f (budget %.0f)", perEp, budget)
			}
		})
	}
}
