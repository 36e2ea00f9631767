package experiment

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// OracleSpec names the forced-attack sweeps used to collect one
// vector's training data (paper §IV-B: "each simulation had a
// predefined delta_inject and a k").
type OracleSpec struct {
	Vector core.Vector
	// Sweeps pairs scenarios with the Table I steering needed to make
	// the matcher pick this vector there.
	Sweeps []OracleSweep
	// DeltaGrid is the set of delta_inject trigger values.
	DeltaGrid []float64
	// SeedsPerPoint controls repetitions per grid point.
	SeedsPerPoint int
}

// OracleSweep is one scenario in a spec.
type OracleSweep struct {
	Scenario           scenario.ID
	PreferDisappearFor sim.Class
	TargetClass        sim.Class
}

// DefaultOracleSpecs returns the training sweeps for the three attack
// vectors, mirroring the paper's data-collection campaigns.
func DefaultOracleSpecs() []OracleSpec {
	deltas := []float64{8, 12, 16, 20, 25, 30, 36, 42}
	return []OracleSpec{
		{
			Vector: core.VectorDisappear,
			Sweeps: []OracleSweep{
				{Scenario: scenario.DS1, PreferDisappearFor: sim.ClassVehicle, TargetClass: sim.ClassVehicle},
				{Scenario: scenario.DS2, PreferDisappearFor: sim.ClassPedestrian, TargetClass: sim.ClassPedestrian},
			},
			DeltaGrid:     deltas,
			SeedsPerPoint: 2,
		},
		{
			Vector: core.VectorMoveOut,
			Sweeps: []OracleSweep{
				{Scenario: scenario.DS1, PreferDisappearFor: sim.ClassPedestrian, TargetClass: sim.ClassVehicle},
				{Scenario: scenario.DS2, PreferDisappearFor: sim.ClassVehicle, TargetClass: sim.ClassPedestrian},
			},
			DeltaGrid:     deltas,
			SeedsPerPoint: 2,
		},
		{
			Vector: core.VectorMoveIn,
			Sweeps: []OracleSweep{
				{Scenario: scenario.DS3, TargetClass: sim.ClassVehicle},
				{Scenario: scenario.DS4, TargetClass: sim.ClassPedestrian},
			},
			DeltaGrid:     []float64{12, 16, 20, 25, 30, 36, 42, 48},
			SeedsPerPoint: 2,
		},
	}
}

// forcedRun is one grid point of a training sweep.
type forcedRun struct {
	sweep   OracleSweep
	dInject float64
	kMax    int
}

// GenerateOracleDataOn runs the spec's forced attacks on eng and
// harvests one training sample per (launch state, elapsed frames) pair:
// the input is the paper's [delta, vrel, arel, k] and the label is the
// realized ground-truth safety potential k frames after launch. The
// sweep grid is flattened into one batch of engine jobs; the dataset
// folds in grid order, so it is identical for any worker count (and to
// the historical sequential generator, whose j-th run used seed
// baseSeed+1+j).
func GenerateOracleDataOn(eng *engine.Engine, spec OracleSpec, baseSeed int64) (nn.Dataset, error) {
	var grid []forcedRun
	for _, sweep := range spec.Sweeps {
		kMax := core.DefaultSafetyHijackerConfig().KMaxVehicle
		if sweep.TargetClass == sim.ClassPedestrian {
			kMax = core.DefaultSafetyHijackerConfig().KMaxPedestrian
		}
		for _, dInject := range spec.DeltaGrid {
			for s := 0; s < spec.SeedsPerPoint; s++ {
				grid = append(grid, forcedRun{sweep: sweep, dInject: dInject, kMax: kMax})
			}
		}
	}

	runs, err := engine.Map(withEpisodeScratch(eng), baseSeed+1, grid,
		func(ctx context.Context, seed int64, fr forcedRun) (RunResult, error) {
			return RunCtx(ctx, RunConfig{
				Scenario: fr.sweep.Scenario,
				Seed:     seed,
				Attack: AttackSetup{
					Mode:               core.ModeSmart,
					PreferDisappearFor: fr.sweep.PreferDisappearFor,
					Forced:             &ForcedPlan{DeltaInject: fr.dInject, K: fr.kMax},
				},
			})
		})
	var ds nn.Dataset
	if err != nil {
		return ds, fmt.Errorf("oracle data: %w", err)
	}
	for i, rr := range runs {
		if !rr.Launched {
			continue
		}
		for j, delta := range rr.DeltaTrace {
			if j == 0 || j > grid[i].kMax {
				continue
			}
			ds.Add(rr.LaunchState.Encode(j), delta)
		}
	}
	return ds, nil
}

// TrainedOracle bundles a trained network with its validation metrics.
type TrainedOracle struct {
	Vector  core.Vector
	Net     *nn.Network
	Result  nn.Result
	Samples int
}

// TrainOraclesOn trains one network per attack vector, using the
// paper's architecture and 60/40 split. It generates the training data
// for every spec on eng (the forced-episode fan-out), then fits the
// networks epoch by epoch on eng's workers. Up to one slot job per
// worker takes a fit from a ready queue, runs its next epoch and
// requeues it, so the fits advance round-robin and no worker idles
// while any fit has epochs left. Spec i's split, initial weights,
// dropout masks and minibatch order all draw from its own
// stats.NewRNG(baseSeed+i+77), never from the engine's job seed, and a
// fit runs on one goroutine at a time, so the fitted weights are
// bit-identical at any worker count and in any interleaving. Cancelling
// eng's context stops the fits between epochs.
func TrainOraclesOn(eng *engine.Engine, specs []OracleSpec, baseSeed int64, cfg nn.TrainConfig) (map[core.Vector]core.Oracle, []TrainedOracle, error) {
	data := make([]nn.Dataset, len(specs))
	for i, spec := range specs {
		ds, err := GenerateOracleDataOn(eng, spec, baseSeed+int64(i)*10_000)
		if err != nil {
			return nil, nil, err
		}
		if ds.Len() == 0 {
			return nil, nil, fmt.Errorf("oracle data: no samples for %v", spec.Vector)
		}
		data[i] = ds
	}
	infos := make([]TrainedOracle, len(specs))
	trainers := make([]*nn.Trainer, len(specs))
	for i, spec := range specs {
		rng := stats.NewRNG(baseSeed + int64(i) + 77)
		train, val := data[i].Split(0.6, rng)
		net := nn.NewRegressor(core.EncodeDim, rng)
		t, err := nn.NewTrainer(net, train, val, cfg, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("%v oracle: %w", spec.Vector, err)
		}
		trainers[i] = t
		infos[i] = TrainedOracle{Vector: spec.Vector, Net: net, Samples: data[i].Len()}
	}
	if err := fitRoundRobin(eng, trainers, infos); err != nil {
		return nil, nil, err
	}
	oracles := make(map[core.Vector]core.Oracle, len(infos))
	for _, in := range infos {
		oracles[in.Vector] = &core.NNOracle{Net: in.Net}
	}
	return oracles, infos, nil
}

// fitRoundRobin runs every trainer to its last epoch on eng's workers
// and stores each one's Result in infos.
func fitRoundRobin(eng *engine.Engine, trainers []*nn.Trainer, infos []TrainedOracle) error {
	// The ready queue holds each unfinished fit at most once, so with
	// room for all of them a requeue never blocks.
	ready := make(chan int, len(trainers))
	for i := range trainers {
		ready <- i
	}
	var left atomic.Int32
	left.Store(int32(len(trainers)))
	// The slots are plain jobs: no episode scratch or progress.
	fits := eng.With(engine.WithWorkerState(nil), engine.WithProgress(nil))
	slots := make([]struct{}, min(eng.Workers(), len(trainers)))
	_, err := engine.Map(fits, 0, slots, func(ctx context.Context, _ int64, _ struct{}) (struct{}, error) {
		for {
			select {
			case <-ctx.Done():
				return struct{}{}, ctx.Err()
			case i, ok := <-ready:
				if !ok {
					return struct{}{}, nil
				}
				if err := ctx.Err(); err != nil {
					return struct{}{}, err
				}
				if trainers[i].Epoch() {
					ready <- i
					continue
				}
				infos[i].Result = trainers[i].Result()
				if left.Add(-1) == 0 {
					close(ready)
				}
			}
		}
	})
	return err
}
