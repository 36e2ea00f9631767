package main

import (
	"fmt"
	"reflect"
	"time"

	"github.com/robotack/robotack/bench/stat"
	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/stats"
)

// maxValMAE bounds every trained oracle's validation error in metres, at
// any seed: an oracle worse than this is a broken training, not a slow
// one.
const maxValMAE = 6.0

// training is one three-oracle training's outcome.
type training struct {
	oracles map[core.Vector]core.Oracle
	infos   []experiment.TrainedOracle
	// datagen and fit split the time of a traced training.
	datagen, fit time.Duration
}

func (b *benchRun) trainConfig() nn.TrainConfig {
	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = b.sizes.trainEpochs
	return cfg
}

// train trains the three safety-hijacker oracles at seed the way
// robotack-train does: experiment.TrainOraclesOn with the default specs.
// A traced run rebuilds TrainOraclesOn from the exported calls it is
// made of — GenerateOracleDataOn, Dataset.Split, nn.NewRegressor and
// nn.Train, in the same order with the same seeds — to time data
// generation apart from fitting, and sets the training metrics.
func train(b *benchRun, eng *engine.Engine, seed int64, parent span) (training, error) {
	if !b.traced() {
		oracles, infos, err := experiment.TrainOraclesOn(eng, experiment.DefaultOracleSpecs(), seed, b.trainConfig())
		return training{oracles: oracles, infos: infos}, err
	}
	sp := parent.child("train", 0)
	defer sp.end()
	tr := training{oracles: make(map[core.Vector]core.Oracle)}
	for i, spec := range experiment.DefaultOracleSpecs() {
		d, t := sp.child("datagen", 0), time.Now()
		ds, err := experiment.GenerateOracleDataOn(eng, spec, seed+int64(i)*10_000)
		d.end()
		tr.datagen += time.Since(t)
		if err != nil {
			return tr, err
		}
		if ds.Len() == 0 {
			return tr, fmt.Errorf("oracle data: no samples for %v", spec.Vector)
		}
		f, t := sp.child("fit", 0), time.Now()
		rng := stats.NewRNG(seed + int64(i) + 77)
		trainSet, val := ds.Split(0.6, rng)
		net := nn.NewRegressor(core.EncodeDim, rng)
		res, err := nn.Train(net, trainSet, val, b.trainConfig(), rng)
		f.end()
		tr.fit += time.Since(t)
		if err != nil {
			return tr, err
		}
		tr.oracles[spec.Vector] = &core.NNOracle{Net: net}
		tr.infos = append(tr.infos, experiment.TrainedOracle{Vector: spec.Vector, Net: net, Result: res, Samples: ds.Len()})
	}
	samples := 0
	for _, in := range tr.infos {
		samples += in.Samples
	}
	b.set("experiment.datagen_s", tr.datagen.Seconds())
	b.set("nn.train_s", tr.fit.Seconds())
	b.set("nn.train_share", ratio(float64(tr.fit), float64(tr.datagen+tr.fit)))
	b.set("nn.samples", float64(samples))
	return tr, nil
}

// forcedEpisodes lists the forced-attack episodes
// experiment.GenerateOracleDataOn runs for the default specs at seed, in
// its grid order with its seeds.
func forcedEpisodes(seed int64) []experiment.RunConfig {
	var out []experiment.RunConfig
	for i, spec := range experiment.DefaultOracleSpecs() {
		next := seed + int64(i)*10_000 + 1
		for _, sweep := range spec.Sweeps {
			kMax := core.DefaultSafetyHijackerConfig().KMax(sweep.TargetClass)
			for _, d := range spec.DeltaGrid {
				for s := 0; s < spec.SeedsPerPoint; s++ {
					out = append(out, experiment.RunConfig{Scenario: sweep.Scenario, Seed: next, Attack: experiment.AttackSetup{
						Mode:               core.ModeSmart,
						PreferDisappearFor: sweep.PreferDisappearFor,
						Forced:             &experiment.ForcedPlan{DeltaInject: d, K: kMax},
					}})
					next++
				}
			}
		}
	}
	return out
}

// trainPairSeconds sizes oracle-train: one pair of trainings per this
// much of the measured time. A training takes a good part of the run, so
// stopping on the clock would make the number of trainings, and with it
// every metric, jump between runs that straddle the cut-off.
const trainPairSeconds = 10 * time.Second

// runOracleTrain trains the three oracles, one pair of trainings per
// trainPairSeconds of measured time. A pair trains the same seed twice
// (seed, then seed+1, ...), so its second training must reproduce the
// first's samples and validation errors; in a traced run the first of
// each pair is the traced rebuild and the second the library call.
func runOracleTrain(b *benchRun) error {
	root := b.rec.root(b.workload, 0)
	defer root.end()
	eng, teardown, err := setupRepeated(b, func() (*engine.Engine, func(), error) {
		eng := engine.New(engine.WithWorkers(engineWorkers))
		warm := experiment.DefaultOracleSpecs()[0]
		warm.SeedsPerPoint = 1
		ds, err := experiment.GenerateOracleDataOn(eng, warm, engine.SplitMixSeeds(b.seed, -1))
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		rng := stats.NewRNG(b.seed)
		trainSet, val := ds.Split(0.6, rng)
		cfg := b.trainConfig()
		cfg.Epochs = 1
		if _, err := nn.Train(nn.NewRegressor(core.EncodeDim, rng), trainSet, val, cfg, rng); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		return eng, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	perTraining := len(forcedEpisodes(b.seed))
	var (
		opMS, tracedMS, plainMS []float64
		infos                   [][]experiment.TrainedOracle
		mem                     memDelta
		datagen, fit            time.Duration
	)
	start := time.Now()
	for pair := 0; pair < max(1, int(b.seconds/trainPairSeconds)); pair++ {
		seed := b.seed + int64(pair)
		for half := 0; half < 2; half++ {
			id := fmt.Sprintf("training %d (seed %d)", len(opMS), seed)
			b.op()
			m0, t0 := readMem(), time.Now()
			isTraced := b.traced() && half == 0
			var tr training
			if isTraced {
				tr, err = train(b, eng, seed, root)
			} else {
				oracles, ti, terr := experiment.TrainOraclesOn(eng, experiment.DefaultOracleSpecs(), seed, b.trainConfig())
				tr, err = training{oracles: oracles, infos: ti}, terr
			}
			ms := float64(time.Since(t0)) / 1e6
			opMS = append(opMS, ms)
			if isTraced {
				tracedMS = append(tracedMS, ms)
				datagen += tr.datagen
				fit += tr.fit
			} else {
				mem.add(m0, readMem())
				plainMS = append(plainMS, ms)
			}
			if err != nil {
				b.fail(id, "%v", err)
				infos = append(infos, nil)
				continue
			}
			for _, in := range tr.infos {
				if !(in.Result.ValMAE <= maxValMAE) {
					b.fail(id, "%v oracle validation MAE %.3f m exceeds %.1f m", in.Vector, in.Result.ValMAE, maxValMAE)
				}
			}
			if half == 1 && !reflect.DeepEqual(outcomes(tr.infos), outcomes(infos[len(infos)-1])) {
				b.fail(id, "training differs from the previous one at the same seed: %v vs %v",
					outcomes(tr.infos), outcomes(infos[len(infos)-1]))
			}
			infos = append(infos, tr.infos)
		}
	}
	b.setOps(start, opMS, perTraining*len(opMS))
	b.setProc(mem, perTraining*len(plainMS))

	first := outcomes(infos[0])
	b.outputs.Oracles = map[string][]oracleOutcome{b.workload: first}
	if b.expect != nil && b.seed == defaultSeed {
		b.check(reflect.DeepEqual(first, b.expect.Oracles[b.workload]),
			"first training %v differs from the committed %v", first, b.expect.Oracles[b.workload])
	}
	if !b.traced() {
		return nil
	}
	n := float64(len(tracedMS))
	b.set("experiment.datagen_s", datagen.Seconds()/n)
	b.set("nn.train_s", fit.Seconds()/n)
	b.set("nn.train_share", ratio(float64(fit), float64(datagen+fit)))
	b.set("trace.overhead_frac", ratio(stat.Median(tracedMS), stat.Median(plainMS))-1)

	// Frame layers: replay every sizes.replayEvery-th forced-attack
	// episode of the first training against experiment.RunCtx.
	var samples []replaySample
	for j, cfg := range forcedEpisodes(b.seed) {
		if j%b.sizes.replayEvery == 0 {
			samples = append(samples, replaySample{op: fmt.Sprintf("training 0 (seed %d)", b.seed), cfg: cfg,
				want: results.EpisodeRecord{Campaign: "oracle-data", Index: j, Scenario: cfg.Scenario.Label(),
					Mode: core.ModeSmart, ExpectCrashes: true}})
		}
	}
	eps, refMS, err := b.replayAll(samples, root)
	b.setOutcomes(eps)
	b.setEpisodeMS(refMS)
	return err
}
