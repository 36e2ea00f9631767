package experiment

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// smallOracleSpecs is one short sweep per attack vector.
func smallOracleSpecs() []OracleSpec {
	return []OracleSpec{
		{Vector: core.VectorDisappear, Sweeps: []OracleSweep{{Scenario: scenario.DS2,
			PreferDisappearFor: sim.ClassPedestrian, TargetClass: sim.ClassPedestrian}},
			DeltaGrid: []float64{15, 30}, SeedsPerPoint: 1},
		{Vector: core.VectorMoveOut, Sweeps: []OracleSweep{{Scenario: scenario.DS1,
			PreferDisappearFor: sim.ClassPedestrian, TargetClass: sim.ClassVehicle}},
			DeltaGrid: []float64{15, 30}, SeedsPerPoint: 1},
		{Vector: core.VectorMoveIn, Sweeps: []OracleSweep{{Scenario: scenario.DS4,
			TargetClass: sim.ClassPedestrian}},
			DeltaGrid: []float64{20, 40}, SeedsPerPoint: 1},
	}
}

// sameWeights reports whether two networks hold bit-identical dense
// weights and biases.
func sameWeights(a, b *nn.Network) bool {
	if len(a.Layers) != len(b.Layers) {
		return false
	}
	for i, da := range a.Layers {
		db := b.Layers[i]
		for _, p := range [][2][]float64{{da.W, db.W}, {da.B, db.B}} {
			if len(p[0]) != len(p[1]) {
				return false
			}
			for j := range p[0] {
				if math.Float64bits(p[0][j]) != math.Float64bits(p[1][j]) {
					return false
				}
			}
		}
	}
	return true
}

// unevenOracleSpecs is one short sweep per attack vector with grids of
// different lengths, so the datasets differ in size, their epochs take
// different times and the fits finish in a different order from the
// one they started in.
func unevenOracleSpecs() []OracleSpec {
	specs := smallOracleSpecs()
	specs[0].DeltaGrid = []float64{15, 20, 25, 30, 35, 40}
	specs[2].DeltaGrid = []float64{20, 30, 40}
	return specs
}

// TestTrainOraclesWorkerCountInvariant: the round-robin fits give the
// same bits at any worker count, and the same bits as fitting the
// oracles one after another with the exported building blocks. Datasets
// of different sizes make the epochs move between goroutines in orders
// that vary with the worker count and the run.
func TestTrainOraclesWorkerCountInvariant(t *testing.T) {
	const seed = 31
	specs := unevenOracleSpecs()
	cfg := nn.TrainConfig{Epochs: 5, BatchSize: 16, LR: 1e-3}

	var want []TrainedOracle
	sizes := map[int]bool{}
	for i, spec := range specs {
		ds, err := GenerateOracleDataOn(engine.New(engine.WithWorkers(1)), spec, seed+int64(i)*10_000)
		if err != nil {
			t.Fatal(err)
		}
		sizes[ds.Len()] = true
		rng := stats.NewRNG(seed + int64(i) + 77)
		train, val := ds.Split(0.6, rng)
		net := nn.NewRegressor(core.EncodeDim, rng)
		res, err := nn.Train(net, train, val, cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, TrainedOracle{Vector: spec.Vector, Net: net, Result: res, Samples: ds.Len()})
	}
	if len(sizes) != len(specs) {
		t.Fatalf("dataset sizes %v: want %d different sizes", sizes, len(specs))
	}

	for _, workers := range []int{1, 2, 3, 4} {
		oracles, infos, err := TrainOraclesOn(engine.New(engine.WithWorkers(workers)), specs, seed, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(infos) != len(want) || len(oracles) != len(want) {
			t.Fatalf("workers=%d: %d infos, %d oracles, want %d", workers, len(infos), len(oracles), len(want))
		}
		for i, got := range infos {
			w := want[i]
			if got.Vector != w.Vector || got.Samples != w.Samples || got.Result != w.Result {
				t.Errorf("workers=%d oracle %d: %v %d samples %+v, want %v %d samples %+v",
					workers, i, got.Vector, got.Samples, got.Result, w.Vector, w.Samples, w.Result)
			}
			if !sameWeights(got.Net, w.Net) {
				t.Errorf("workers=%d %v: weights differ from the sequential fit", workers, got.Vector)
			}
			if o, ok := oracles[got.Vector].(*core.NNOracle); !ok || o.Net != got.Net {
				t.Errorf("workers=%d %v: oracle map does not hold the fitted network", workers, got.Vector)
			}
		}
	}
}

// TestTrainOraclesCancel: cancelling the engine's context while the
// networks fit stops every fit between epochs. The fits here have far
// more epochs than could run before the test's timeout, so the call
// returns only because it observed the cancellation, and it returns
// context.Canceled within a fraction of a second.
func TestTrainOraclesCancel(t *testing.T) {
	specs := smallOracleSpecs()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Data generation runs one engine batch per spec; once the last
	// batch's last episode completes, cancel a little into the fits.
	var batches atomic.Int32
	cancelled := make(chan time.Time, 1)
	progress := func(done, total int) {
		if done == total && int(batches.Add(1)) == len(specs) {
			time.AfterFunc(100*time.Millisecond, func() {
				cancelled <- time.Now()
				cancel()
			})
		}
	}
	eng := engine.New(engine.WithWorkers(2), engine.WithContext(ctx), engine.WithProgress(progress))
	cfg := nn.TrainConfig{Epochs: math.MaxInt32, BatchSize: 16, LR: 1e-3}
	_, _, err := TrainOraclesOn(eng, specs, 5, cfg)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case at := <-cancelled:
		if d := returned.Sub(at); d > 2*time.Second {
			t.Errorf("returned %v after the cancel, want well under one fit's time", d)
		}
	default:
		t.Fatal("returned before the fits were cancelled")
	}
}
