// Package robotack's root benchmark harness regenerates every table
// and figure of the paper's evaluation (§VI) as testing.B benchmarks.
// Rates are reported via b.ReportMetric. Absolute numbers reflect this
// 2-D closed-loop simulator, not the authors' GPU testbed and driving
// stack, so the claim being reproduced is the SHAPE of each result —
// such as RoboTack's EB rate above the random baseline's
// (BenchmarkHeadline) — not the paper's absolute percentages. The
// README's Quickstart runs the same evaluation at paper scale.
package robotack_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// benchRuns is the per-campaign episode count used inside benchmarks —
// a scaled-down Table II (the paper used 101-185 runs per campaign; use
// cmd/robotack-campaign -runs 150 for paper scale).
const benchRuns = 20

func campaignMetrics(b *testing.B, c experiment.Campaign, oracles map[core.Vector]core.Oracle) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCampaignOn(engine.New(), c, benchRuns, 4000+int64(i), oracles)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.EBRate(), "EB%")
		b.ReportMetric(100*res.CrashRate(), "crash%")
		b.ReportMetric(res.MedianK(), "medK")
		b.ReportMetric(stats.Median(res.KPrimes), "medK'")
	}
}

// BenchmarkTable2 regenerates one Table II row per sub-benchmark.
func BenchmarkTable2(b *testing.B) {
	for _, c := range experiment.TableIICampaigns() {
		b.Run(c.Name, func(b *testing.B) {
			campaignMetrics(b, c, nil)
		})
	}
}

// BenchmarkFig5 regenerates the detector characterization; the reported
// metrics are the distribution fits of Fig. 5.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiment.CharacterizeOn(engine.New(), 3000, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.Pedestrian.MissRuns.P99, "ped-p99-frames")
		b.ReportMetric(c.Vehicle.MissRuns.P99, "veh-p99-frames")
		b.ReportMetric(c.Pedestrian.ErrX.Sigma, "ped-sigma-x")
		b.ReportMetric(c.Vehicle.ErrX.Sigma, "veh-sigma-x")
	}
}

// BenchmarkFig6 compares min safety potential with and without the
// safety hijacker for the DS-1/DS-2 campaigns (medians of the paper's
// boxplots).
func BenchmarkFig6(b *testing.B) {
	campaigns := experiment.TableIICampaigns()[:4] // the four Fig. 6 panels
	for _, c := range campaigns {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				withSH, err := experiment.RunCampaignOn(engine.New(), c, benchRuns, 6000, nil)
				if err != nil {
					b.Fatal(err)
				}
				noSH, err := experiment.RunCampaignOn(engine.New(), c.WithoutSH(), benchRuns, 6000, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Median(withSH.MinDeltas), "R-med-delta")
				b.ReportMetric(stats.Median(noSH.MinDeltas), "noSH-med-delta")
			}
		})
	}
}

// BenchmarkFig7 reports the shift time K' per attack vector and class.
func BenchmarkFig7(b *testing.B) {
	for _, c := range experiment.TableIICampaigns()[:6] {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunCampaignOn(engine.New(), c, benchRuns, 7000, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(stats.Median(res.KPrimes), "medK'")
			}
		})
	}
}

// BenchmarkFig8 trains a small safety-hijacker oracle and reports its
// prediction error and the success-vs-error relationship.
func BenchmarkFig8(b *testing.B) {
	spec := experiment.OracleSpec{
		Vector: core.VectorMoveOut,
		Sweeps: []experiment.OracleSweep{{
			Scenario:           scenario.DS1,
			PreferDisappearFor: sim.ClassPedestrian, // so vehicles get Move_Out
			TargetClass:        sim.ClassVehicle,
		}},
		DeltaGrid:     []float64{12, 18, 24, 30, 36},
		SeedsPerPoint: 1,
	}
	for i := 0; i < b.N; i++ {
		_, infos, err := experiment.TrainOraclesOn(engine.New(), []experiment.OracleSpec{spec}, 8000,
			nn.TrainConfig{Epochs: 25, BatchSize: 32, LR: 1e-3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(infos[0].Result.ValMAE, "val-MAE-m")
		b.ReportMetric(float64(infos[0].Samples), "samples")
	}
}

// BenchmarkHeadline aggregates the §VI headline comparison: RoboTack vs
// the random baseline.
func BenchmarkHeadline(b *testing.B) {
	campaigns := experiment.TableIICampaigns()
	for i := 0; i < b.N; i++ {
		var smart, random []experiment.CampaignResult
		for _, c := range campaigns {
			res, err := experiment.RunCampaignOn(engine.New(), c, benchRuns/2, 9000, nil)
			if err != nil {
				b.Fatal(err)
			}
			if c.Mode == core.ModeRandom {
				random = append(random, res)
			} else {
				smart = append(smart, res)
			}
		}
		s, r := experiment.Summarize(experiment.Records(smart)), experiment.Summarize(experiment.Records(random))
		b.ReportMetric(100*float64(s.EBs)/float64(s.Runs), "robotack-EB%")
		b.ReportMetric(100*float64(r.EBs)/float64(max(r.Runs, 1)), "random-EB%")
		b.ReportMetric(100*float64(s.Crashes)/float64(max(s.CrashEligibleRuns, 1)), "robotack-crash%")
		b.ReportMetric(100*float64(r.Crashes)/float64(max(r.CrashEligibleRuns, 1)), "random-crash%")
	}
}

// BenchmarkEngineParallel compares campaign throughput on a 1-worker
// engine against the full GOMAXPROCS pool; the episodes/s metric is
// the parallel-campaign speedup the engine buys. Results are
// bit-identical across the two sub-benchmarks by construction.
func BenchmarkEngineParallel(b *testing.B) {
	c := experiment.Campaign{
		Name:               "DS-2-Disappear-R",
		Scenario:           scenario.DS2,
		Mode:               core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian,
		ExpectCrashes:      true,
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := engine.New(engine.WithWorkers(workers))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiment.RunCampaignOn(eng, c, benchRuns, 4000, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Runs != benchRuns {
					b.Fatalf("ran %d episodes, want %d", res.Runs, benchRuns)
				}
			}
			b.ReportMetric(float64(benchRuns*b.N)/b.Elapsed().Seconds(), "episodes/s")
		})
	}
}

// Microbenchmarks of the hot paths.

// BenchmarkFrame measures one steady-state closed-loop frame: camera
// capture, LiDAR scan, the full ADS perception stack and the planner,
// feeding the EV's actuation back into the world. DS-1 (car following)
// reaches a stable follow state, so the loop measures the warm frame
// step indefinitely. The allocs/op metric is the pipeline's per-frame
// GC pressure — the quantity the pooled pipeline drives to zero.
func BenchmarkFrame(b *testing.B) {
	scn, err := scenario.InstantiateSource(scenario.DS1, nil, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	w := scn.World
	cam := sensor.DefaultCamera()
	adsRNG := stats.NewRNG(7919)
	ads := perception.NewDefault(cam, adsRNG)
	lidar := sensor.NewLidar(adsRNG.Split())
	pl := planner.New(planner.DefaultConfig(scn.CruiseSpeed))
	var buf sensor.CaptureBuffer
	step := func(i int) {
		frame := cam.CaptureInto(&buf, w, i)
		objs := ads.Process(frame.Image, lidar.Scan(w))
		d := pl.Plan(objs, ads.Fusion.Config(), w.EV, w.Road)
		w.Step(d.Accel)
		w.Halted = false // keep the loop hot past any proximity halt
	}
	for i := 0; i < 45; i++ { // warm up: tracks confirmed, fusion settled
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(45 + i)
	}
}

// BenchmarkEpisode measures full closed-loop episodes end to end —
// the unit of work every campaign fans out. The attacked variant runs
// the malware's second perception stack and the analytic safety
// hijacker on top of the golden pipeline.
func BenchmarkEpisode(b *testing.B) {
	cases := []struct {
		name string
		cfg  experiment.RunConfig
	}{
		{"golden-DS1", experiment.RunConfig{Scenario: scenario.DS1}},
		{"attacked-DS2", experiment.RunConfig{
			Scenario: scenario.DS2,
			Attack:   experiment.AttackSetup{Mode: core.ModeSmart, PreferDisappearFor: sim.ClassPedestrian},
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				cfg.Seed = int64(i)
				if _, err := experiment.RunCtx(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "episodes/s")
		})
	}
}

// BenchmarkCampaignThroughput measures a full campaign (engine fan-out
// included) in episodes per second — the number the ROADMAP's
// million-episode sweeps divide by.
func BenchmarkCampaignThroughput(b *testing.B) {
	c := experiment.Campaign{
		Name:               "DS-2-Disappear-R",
		Scenario:           scenario.DS2,
		Mode:               core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian,
		ExpectCrashes:      true,
	}
	eng := engine.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCampaignOn(eng, c, benchRuns, 4000, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs != benchRuns {
			b.Fatalf("ran %d episodes, want %d", res.Runs, benchRuns)
		}
	}
	b.ReportMetric(float64(benchRuns*b.N)/b.Elapsed().Seconds(), "episodes/s")
}
