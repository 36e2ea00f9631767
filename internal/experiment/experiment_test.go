package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

func TestGoldenRunsMostlySafe(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	for _, id := range scenario.All() {
		res, err := RunGolden(id, 10, 900)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes > 1 {
			t.Errorf("%v golden: %d/%d crashes, want <= 1", id, res.Crashes, res.Runs)
		}
	}
}

func TestSmartAttackBeatsGoldenOnPedestrians(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	c := Campaign{Name: "DS-2-Disappear-R", Scenario: scenario.DS2, Mode: core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true}
	atk, err := RunCampaign(c, 10, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if atk.Launched < 8 {
		t.Fatalf("launched %d/10; the smart malware should fire in nearly every DS-2 run", atk.Launched)
	}
	golden, err := RunGolden(scenario.DS2, 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	if atk.Crashes <= golden.Crashes {
		t.Errorf("attack crashes (%d) should exceed golden crashes (%d)", atk.Crashes, golden.Crashes)
	}
	if atk.EBs+atk.Crashes < 5 {
		t.Errorf("DS-2 Disappear hazards = EB %d + crash %d; want a majority of runs", atk.EBs, atk.Crashes)
	}
}

func TestRandomBaselineWeakerThanSmartOnPed(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	smart := Campaign{Name: "s", Scenario: scenario.DS2, Mode: core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true}
	sRes, err := RunCampaign(smart, 12, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	random := Campaign{Name: "r", Scenario: scenario.DS5, Mode: core.ModeRandom, ExpectCrashes: true}
	rRes, err := RunCampaign(random, 12, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sRes.EBs+sRes.Crashes <= rRes.EBs+rRes.Crashes {
		t.Errorf("smart hazards (%d) should exceed random hazards (%d)",
			sRes.EBs+sRes.Crashes, rRes.EBs+rRes.Crashes)
	}
}

func TestGoldenErrorsCarryScenarioAndRun(t *testing.T) {
	// ID 0 is invalid, so every episode fails; the aggregate error must
	// name the scenario and the run index like campaign errors do.
	_, err := RunGoldenOn(engine.New(engine.WithWorkers(1)), scenario.ID(0), 3, 1)
	if err == nil {
		t.Fatal("golden runs on an invalid scenario must fail")
	}
	if want := "golden DS-?(0) run 0:"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestCampaignOnGeneratedSource(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	src := scenario.FromGenerator(scenegen.NewGenerator(scenegen.DefaultSpace()))
	c := Campaign{Name: "gen-smart", Scenario: src, Mode: core.ModeSmart, ExpectCrashes: true}
	a, err := RunCampaignOn(engine.New(engine.WithWorkers(4)), c, 10, 4200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs != 10 {
		t.Fatalf("runs = %d, want 10", a.Runs)
	}
	if a.Launched < 6 {
		t.Errorf("launched %d/10; the malware should fire in most generated scenarios", a.Launched)
	}
	// Same seeds, same generator: the diversity campaign itself is
	// deterministic.
	b, err := RunCampaignOn(engine.New(engine.WithWorkers(1)), c, 10, 4200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("generated-source campaign not deterministic:\n%+v\n%+v", a, b)
	}

	golden, err := RunGoldenOn(engine.New(), src, 10, 4200)
	if err != nil {
		t.Fatal(err)
	}
	if golden.Crashes > 2 {
		t.Errorf("golden runs on generated scenarios crashed %d/10 times", golden.Crashes)
	}
}

func TestCharacterizeRecoversFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization test")
	}
	c := Characterize(2500, 5)
	if c.Vehicle.Samples < 500 || c.Pedestrian.Samples < 300 {
		t.Fatalf("too few samples: veh=%d ped=%d", c.Vehicle.Samples, c.Pedestrian.Samples)
	}
	// Shape checks on the Gaussian center-error fits. The IoU-based
	// matching censors the heavy tail, so fitted sigmas under-read the
	// injected values; the class ordering (pedestrian-x noisiest) must
	// still hold.
	if c.Vehicle.ErrX.Sigma < 0.05 || c.Vehicle.ErrX.Sigma > 0.7 {
		t.Errorf("vehicle sigma_x = %.3f, want same order as 0.464", c.Vehicle.ErrX.Sigma)
	}
	if c.Pedestrian.ErrX.Sigma <= c.Vehicle.ErrX.Sigma {
		t.Errorf("pedestrian sigma_x (%.3f) should exceed vehicle sigma_x (%.3f)",
			c.Pedestrian.ErrX.Sigma, c.Vehicle.ErrX.Sigma)
	}
	// Misdetection runs: both classes heavy-tailed, at least one frame.
	if c.Pedestrian.Runs < 20 || c.Vehicle.Runs < 20 {
		t.Fatalf("too few miss runs: ped=%d veh=%d", c.Pedestrian.Runs, c.Vehicle.Runs)
	}
	if c.Pedestrian.MissRuns.Loc < 1 || c.Vehicle.MissRuns.Loc < 1 {
		t.Error("miss runs must be at least one frame")
	}
	if c.Vehicle.MissRuns.P99 < 5 {
		t.Errorf("vehicle miss-run p99 = %.1f, want a heavy tail", c.Vehicle.MissRuns.P99)
	}
	out := FormatFig5(c)
	if !strings.Contains(out, "misdetection runs") {
		t.Error("FormatFig5 output malformed")
	}
}

func TestOracleDataGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	spec := OracleSpec{
		Vector: core.VectorDisappear,
		Sweeps: []OracleSweep{{Scenario: scenario.DS2,
			PreferDisappearFor: sim.ClassPedestrian, TargetClass: sim.ClassPedestrian}},
		DeltaGrid:     []float64{15, 25},
		SeedsPerPoint: 1,
	}
	ds, err := GenerateOracleData(spec, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 30 {
		t.Fatalf("dataset too small: %d samples", ds.Len())
	}
	for i := range ds.X {
		if len(ds.X[i]) != core.EncodeDim {
			t.Fatalf("sample %d has dim %d", i, len(ds.X[i]))
		}
	}
}

func TestTrainOraclesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	specs := []OracleSpec{{
		Vector: core.VectorDisappear,
		Sweeps: []OracleSweep{{Scenario: scenario.DS2,
			PreferDisappearFor: sim.ClassPedestrian, TargetClass: sim.ClassPedestrian}},
		DeltaGrid:     []float64{15, 25, 35},
		SeedsPerPoint: 1,
	}}
	oracles, infos, err := TrainOracles(specs, 777, nn.TrainConfig{Epochs: 20, BatchSize: 32, LR: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracles) != 1 || oracles[core.VectorDisappear] == nil {
		t.Fatal("missing trained oracle")
	}
	// The paper's NN predicts within 1-1.5 m for pedestrians and ~5 m
	// for vehicles; allow a loose bound for this tiny training run.
	if infos[0].Result.ValMAE > 8 {
		t.Errorf("validation MAE = %.2f m, want single digits", infos[0].Result.ValMAE)
	}
}

func TestCampaignErrorsReportEveryFailure(t *testing.T) {
	// ID 0 is invalid, so every episode fails; the joined error must
	// name every failing index, not just the first.
	c := Campaign{Name: "broken", Scenario: scenario.ID(0), Mode: core.ModeSmart, ExpectCrashes: true}
	_, err := RunCampaignOn(engine.New(engine.WithWorkers(2)), c, 3, 1, nil)
	if err == nil {
		t.Fatal("campaign on an invalid scenario must fail")
	}
	for i := 0; i < 3; i++ {
		if want := fmt.Sprintf("campaign broken run %d:", i); !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not report %q", err, want)
		}
	}
}

// countingSink wraps a sink and counts fresh appends, to prove resume
// skips persisted episodes.
type countingSink struct {
	results.Store
	appends int
}

func (c *countingSink) Append(ep results.EpisodeRecord) error {
	c.appends++
	return c.Store.Append(ep)
}

func TestCampaignResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	c := Campaign{Name: "resume-DS-2", Scenario: scenario.DS2, Mode: core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true}
	const full, interruptAt = 8, 5

	// Reference: one uninterrupted run.
	wholeStore := results.NewMemStore()
	whole, err := RunCampaignOn(engine.New(), c, full, 300, nil, WithSink(wholeStore))
	if err != nil {
		t.Fatal(err)
	}

	// A campaign "interrupted" after interruptAt episodes, then resumed
	// from the store for the full count.
	partStore := results.NewMemStore()
	if _, err := RunCampaignOn(engine.New(), c, interruptAt, 300, nil, WithSink(partStore)); err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{Store: partStore}
	resumed, err := RunCampaignOn(engine.New(), c, full, 300, nil, WithSink(sink), WithResume(partStore))
	if err != nil {
		t.Fatal(err)
	}

	if sink.appends != full-interruptAt {
		t.Errorf("resume re-ran %d episodes, want %d (persisted ones must be skipped)",
			sink.appends, full-interruptAt)
	}
	if !reflect.DeepEqual(resumed.CampaignRecord, whole.CampaignRecord) {
		t.Errorf("resumed aggregate differs from uninterrupted run:\n got %+v\nwant %+v",
			resumed.CampaignRecord, whole.CampaignRecord)
	}
	gotTable := FormatTableII([]results.CampaignRecord{resumed.CampaignRecord})
	wantTable := FormatTableII([]results.CampaignRecord{whole.CampaignRecord})
	if gotTable != wantTable {
		t.Errorf("Table II differs after resume:\n got %s\nwant %s", gotTable, wantTable)
	}

	// Both stores now hold identical episode records and aggregates.
	wantEps, _ := wholeStore.Episodes(c.Name)
	gotEps, _ := partStore.Episodes(c.Name)
	if !reflect.DeepEqual(gotEps, wantEps) {
		t.Errorf("stored episodes differ:\n got %+v\nwant %+v", gotEps, wantEps)
	}
	wantCamps, _ := wholeStore.Campaigns()
	gotCamps, _ := partStore.Campaigns()
	if !reflect.DeepEqual(gotCamps, wantCamps) {
		t.Errorf("stored aggregates differ:\n got %+v\nwant %+v", gotCamps, wantCamps)
	}
}

func TestResumeRejectsMismatchedSeeds(t *testing.T) {
	store := results.NewMemStore()
	ep := RecordEpisode("seed-check", 0, 12345, "DS-2", core.ModeSmart, true, RunResult{})
	if err := store.Append(ep); err != nil {
		t.Fatal(err)
	}
	c := Campaign{Name: "seed-check", Scenario: scenario.DS2, Mode: core.ModeSmart, ExpectCrashes: true}
	// Base seed 300 derives seed 300 for index 0, not 12345.
	_, err := RunCampaignOn(engine.New(engine.WithWorkers(1)), c, 1, 300, nil, WithResume(store))
	if err == nil || !strings.Contains(err.Error(), "refusing to mix seed streams") {
		t.Errorf("err = %v, want seed-stream mismatch", err)
	}
}

func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	// An (untrained) NN oracle exercises the per-episode oracle cloning
	// that makes shared trained nets safe under concurrency.
	oracles := map[core.Vector]core.Oracle{
		core.VectorDisappear: &core.NNOracle{Net: nn.NewRegressor(core.EncodeDim, stats.NewRNG(11))},
	}
	c := Campaign{Name: "det", Scenario: scenario.DS2, Mode: core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true}
	var (
		want    CampaignResult
		wantEps []byte
	)
	for i, workers := range []int{1, 4, 8} {
		mem := results.NewMemStore()
		got, err := RunCampaignOn(engine.New(engine.WithWorkers(workers)), c, 12, 500, oracles,
			WithSink(mem))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Runs != 12 {
			t.Fatalf("workers=%d: %d runs, want 12", workers, got.Runs)
		}
		eps, err := mem.Episodes(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(eps) != 12 {
			t.Fatalf("workers=%d: %d stored episodes, want 12", workers, len(eps))
		}
		raw, err := json.Marshal(eps)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want, wantEps = got, raw
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: aggregate differs from 1-worker run:\n got %+v\nwant %+v",
				workers, got, want)
		}
		if !bytes.Equal(raw, wantEps) {
			t.Errorf("workers=%d: stored episode records differ from 1-worker run:\n got %s\nwant %s",
				workers, raw, wantEps)
		}
	}
}

// TestBatchedCampaignBitIdentical is the Table-II-level proof that a
// campaign batch, persisted to a store, is independent of how the
// engine's worker pool schedules it: with both NN oracle vectors
// (disappear and move-out, each cloned per worker) every worker count
// must store the same episode records and aggregate as one worker.
func TestBatchedCampaignBitIdentical(t *testing.T) {
	oracles := testOracles()
	c := Campaign{
		Name:               "batched-iso",
		Scenario:           scenario.DS2,
		Mode:               core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian,
		ExpectCrashes:      true,
	}
	const runs = 10
	const baseSeed = 4400

	var refStore *results.MemStore
	var refRec results.CampaignRecord
	for _, workers := range []int{1, 2, 4} {
		st := results.NewMemStore()
		res, err := RunCampaignOn(engine.New(engine.WithWorkers(workers)), c, runs, baseSeed, oracles, WithSink(st))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if refStore == nil {
			refStore, refRec = st, res.CampaignRecord
			continue
		}
		if !reflect.DeepEqual(res.CampaignRecord, refRec) {
			t.Errorf("workers=%d: aggregate differs from single-worker run:\ngot:  %+v\nwant: %+v",
				workers, res.CampaignRecord, refRec)
		}
		got, err := st.Episodes(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refStore.Episodes(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != runs || !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: stored episode records differ from single-worker run", workers)
		}
	}
}

// TestCampaignMetricsInert: the observability layer never feeds back
// into results — the same campaign persists byte-identical episode and
// aggregate records with metrics recording off and on.
func TestCampaignMetricsInert(t *testing.T) {
	t.Cleanup(func() { obs.SetEnabled(true) })
	c := Campaign{Name: "inert", Scenario: scenario.DS2, Mode: core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true}

	runOnce := func(enabled bool) []byte {
		t.Helper()
		obs.SetEnabled(enabled)
		mem := results.NewMemStore()
		res, err := RunCampaignOn(engine.New(engine.WithWorkers(4)), c, 8, 500, nil,
			WithSink(mem))
		if err != nil {
			t.Fatalf("metrics=%v: %v", enabled, err)
		}
		eps, err := mem.Episodes("inert")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(struct {
			Result   CampaignResult
			Episodes []results.EpisodeRecord
		}{res, eps})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	off := runOnce(false)
	on := runOnce(true)
	if string(off) != string(on) {
		t.Errorf("records differ with metrics on vs off:\noff %s\non  %s", off, on)
	}
}

// TestCampaignTracesInert: span tracing, like metrics, never feeds
// back into results — the same campaign persists byte-identical
// episode and aggregate records with tracing off and on, even while
// the traced run writes real spans through the durable binary sink.
func TestCampaignTracesInert(t *testing.T) {
	c := Campaign{Name: "traced-inert", Scenario: scenario.DS2, Mode: core.ModeSmart,
		PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true}

	runOnce := func(traced bool) []byte {
		t.Helper()
		ctx := context.Background()
		var tr *trace.Tracer
		var dir string
		if traced {
			dir = t.TempDir()
			sink, err := trace.NewFileSink(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			// Sample 1-in-2 so both the annotated and the exemplar
			// episode paths execute.
			tr = trace.New("test", sink, trace.WithSampleEvery(2))
			tid := trace.DeriveTraceID("traced-inert", 500)
			ctx = trace.NewContext(ctx, trace.SpanContext{
				Tracer: tr, TraceID: tid, SpanID: trace.DeriveSpanID(tid, 0, trace.StreamRun)})
		}
		mem := results.NewMemStore()
		res, err := RunCampaignOn(engine.New(engine.WithWorkers(4), engine.WithContext(ctx)),
			c, 8, 500, nil, WithSink(mem))
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if traced {
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			spans, err := trace.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 {
				t.Fatal("traced run emitted no spans; the inertness claim would be vacuous")
			}
		}
		eps, err := mem.Episodes("traced-inert")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(struct {
			Result   CampaignResult
			Episodes []results.EpisodeRecord
		}{res, eps})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	off := runOnce(false)
	on := runOnce(true)
	if string(off) != string(on) {
		t.Errorf("records differ with tracing on vs off:\noff %s\non  %s", off, on)
	}
}

func TestCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization test")
	}
	// 4000 frames spans two segments, so worker counts actually differ
	// in scheduling.
	seq, err := CharacterizeOn(engine.New(engine.WithWorkers(1)), 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CharacterizeOn(engine.New(engine.WithWorkers(4)), 4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("characterization differs across worker counts:\n seq %+v\n par %+v", seq, par)
	}
}

func TestCampaignCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := engine.New(
		engine.WithWorkers(2),
		engine.WithContext(ctx),
		engine.WithProgress(func(done, total int) {
			if done == 2 {
				cancel()
			}
		}),
	)
	c := Campaign{Name: "cancel", Scenario: scenario.DS1, Mode: core.ModeSmart,
		PreferDisappearFor: sim.ClassVehicle, ExpectCrashes: true}
	start := time.Now()
	res, err := RunCampaignOn(eng, c, 60, 100, nil)
	if err == nil {
		t.Fatal("canceled campaign returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Runs == 0 || res.Runs >= 60 {
		t.Errorf("partial aggregate has %d runs, want 0 < n < 60", res.Runs)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}
