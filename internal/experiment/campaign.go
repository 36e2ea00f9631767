package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sim"
)

// Campaign is one experimental campaign of Table II: a driving scenario
// paired with an attack vector and strategy. Scenario is any
// scenario.Source — a paper ID, a named or file-loaded spec, or a
// procedural generator.
type Campaign struct {
	Name     string
	Scenario scenario.Source
	Mode     core.Mode
	// PreferDisappearFor steers Table I's interchangeable cell so the
	// campaign exercises the intended vector.
	PreferDisappearFor sim.Class
	// ExpectCrashes is false for Move_In campaigns (no physical
	// obstacle to hit), matching the "—" cells of Table II.
	ExpectCrashes bool
	// Policy drives smart-mode episodes through an attack policy
	// instead of the built-in fixed trigger (nil: the paper's
	// trigger). The policy value is shared across the batch's
	// workers, so it must be stateless (see core.TriggerPolicy).
	Policy core.TriggerPolicy
}

// TableIICampaigns returns the seven campaigns of Table II, in the
// paper's row order. R-mode campaigns use the full RoboTack.
func TableIICampaigns() []Campaign {
	return []Campaign{
		{Name: "DS-1-Disappear-R", Scenario: scenario.DS1, Mode: core.ModeSmart,
			PreferDisappearFor: sim.ClassVehicle, ExpectCrashes: true},
		{Name: "DS-2-Disappear-R", Scenario: scenario.DS2, Mode: core.ModeSmart,
			PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true},
		{Name: "DS-1-Move_Out-R", Scenario: scenario.DS1, Mode: core.ModeSmart,
			PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: true},
		{Name: "DS-2-Move_Out-R", Scenario: scenario.DS2, Mode: core.ModeSmart,
			PreferDisappearFor: sim.ClassVehicle, ExpectCrashes: true},
		{Name: "DS-3-Move_In-R", Scenario: scenario.DS3, Mode: core.ModeSmart,
			PreferDisappearFor: sim.ClassPedestrian, ExpectCrashes: false},
		{Name: "DS-4-Move_In-R", Scenario: scenario.DS4, Mode: core.ModeSmart,
			PreferDisappearFor: sim.ClassVehicle, ExpectCrashes: false},
		{Name: "DS-5-Baseline-Random", Scenario: scenario.DS5, Mode: core.ModeRandom,
			ExpectCrashes: true},
	}
}

// WithoutSH derives the "R w/o SH" variant of a campaign (random
// timing, Fig. 6 comparison).
func (c Campaign) WithoutSH() Campaign {
	out := c
	out.Name = c.Name + "-noSH"
	out.Mode = core.ModeNoSH
	return out
}

// WithPolicy derives the policy-driven variant of a smart campaign:
// same scenario and seeds, with the fixed trigger replaced by p. The
// suffix keeps the variant's records distinct from the paper trigger's
// so the two evaluate side by side in one store.
func (c Campaign) WithPolicy(suffix string, p core.TriggerPolicy) Campaign {
	out := c
	out.Name = c.Name + "-" + suffix
	out.Policy = p
	return out
}

// CampaignResult pairs a campaign's live configuration with its
// persistent aggregate. The embedded results.CampaignRecord is the
// part that survives the process: it is what sinks store, reports
// format, diffs compare and resumed campaigns rebuild bit-identically.
type CampaignResult struct {
	Campaign Campaign
	results.CampaignRecord
}

// GoldenResult pairs an attack-free baseline's scenario source with
// its persistent aggregate (sanity baseline: the paper's golden runs
// are incident-free).
type GoldenResult struct {
	Source scenario.Source
	results.CampaignRecord
}

// Records extracts the persistent aggregates from live campaign
// results, in order — the bridge from a freshly run sweep to the
// record-based report formatters.
func Records(rs []CampaignResult) []results.CampaignRecord {
	out := make([]results.CampaignRecord, len(rs))
	for i := range rs {
		out[i] = rs[i].CampaignRecord
	}
	return out
}

// finite maps NaN/±Inf to zero: non-smart modes mark "no oracle
// forecast" with NaN, which JSON cannot carry. Fresh and resumed runs
// both fold the sanitized record, so aggregates stay bit-identical.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// RecordEpisode converts one episode's live outcome into its
// persistent record under the given campaign key.
func RecordEpisode(campaign string, index int, seed int64, scenarioLabel string, mode core.Mode, expectCrashes bool, rr RunResult) results.EpisodeRecord {
	return results.EpisodeRecord{
		V:              results.Version,
		Campaign:       campaign,
		Index:          index,
		Seed:           seed,
		Scenario:       scenarioLabel,
		Mode:           mode,
		ExpectCrashes:  expectCrashes,
		Launched:       rr.Launched,
		LaunchFrame:    rr.LaunchFrame,
		Vector:         rr.Vector,
		TargetClass:    rr.TargetClass,
		K:              rr.K,
		KPrime:         rr.KPrime,
		EB:             rr.EB,
		Crashed:        rr.Crashed,
		MinDelta:       finite(rr.MinDelta),
		DeltaAtLaunch:  finite(rr.DeltaAtLaunch),
		PredictedDelta: finite(rr.PredictedDelta),
		RealizedDelta:  finite(rr.RealizedDelta),
		Frames:         rr.Frames,
	}
}

// runOptions carries the optional persistence wiring of a campaign.
type runOptions struct {
	sink   results.Sink
	resume results.Store
	record string
}

// RunOption configures persistence and resumption for
// RunCampaignOn/RunGoldenOn.
type RunOption func(*runOptions)

// WithSink streams every freshly executed episode's record to s in
// submission (index) order as episodes complete. When s is also a
// results.Store, the campaign's final aggregate is upserted after a
// fully successful run — an interrupted campaign leaves episodes only,
// which is how readers recognize it as resumable.
func WithSink(s results.Sink) RunOption {
	return func(o *runOptions) { o.sink = s }
}

// WithResume folds episodes already persisted in s (keyed by the
// campaign record name and episode index) back into the aggregate
// instead of re-running them. Stored episodes must carry the seed the
// engine derives for their index; a mismatch fails the episode rather
// than silently mixing seed streams. The resumed aggregate is
// bit-identical to an uninterrupted run's.
func WithResume(s results.Store) RunOption {
	return func(o *runOptions) { o.resume = s }
}

// WithRecordName overrides the campaign key used for persisted
// records (default: the campaign's name, or "golden-" + the scenario
// label for golden runs).
func WithRecordName(name string) RunOption {
	return func(o *runOptions) { o.record = name }
}

// recordedRun is the shared shape of a recorded batch: campaigns and
// golden baselines differ only in identity and job construction.
type recordedRun struct {
	kind          string // "campaign" | "golden", for error messages
	name          string // record / resume key
	errName       string // name used in error messages
	scenarioLabel string
	mode          core.Mode
	expectCrashes bool
	runs          int
	baseSeed      int64
	mkJob         func(i int) engine.Job
	opts          runOptions
}

// execute runs the batch on eng, folding completed episodes into the
// aggregate in submission order and streaming fresh ones to the sink.
// Every per-run failure is collected (errors.Join), not just the
// first; a canceled batch additionally joins the context error.
func execute(eng *engine.Engine, rr recordedRun) (results.CampaignRecord, error) {
	// Every worker gets one episode Scratch for the whole batch:
	// pipelines, frame buffers and oracle clones are reused across the
	// episodes that worker runs.
	eng = withEpisodeScratch(eng)
	rec := results.NewCampaign(rr.name, rr.scenarioLabel, rr.mode, rr.expectCrashes, rr.baseSeed)

	resumed := make(map[int]results.EpisodeRecord)
	if rr.opts.resume != nil {
		prior, err := rr.opts.resume.Episodes(rr.name)
		if err != nil {
			return rec, fmt.Errorf("%s %s: resume: %w", rr.kind, rr.errName, err)
		}
		for _, p := range prior {
			if p.Index >= 0 && p.Index < rr.runs {
				resumed[p.Index] = p
			}
		}
	}

	jobs := make([]engine.Job, rr.runs)
	for i := range jobs {
		if p, ok := resumed[i]; ok {
			jobs[i] = func(ctx context.Context, seed int64) (any, error) {
				if p.Seed != seed {
					return nil, fmt.Errorf("stored episode ran with seed %d but this run derives %d; refusing to mix seed streams", p.Seed, seed)
				}
				return p, nil
			}
		} else {
			jobs[i] = rr.mkJob(i)
		}
	}

	var errs []error
	delivered := 0
	for r := range eng.StreamOrdered(rr.baseSeed, jobs) {
		delivered++
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s %s run %d: %w", rr.kind, rr.errName, r.Index, r.Err))
			continue
		}
		var ep results.EpisodeRecord
		fresh := false
		switch v := r.Value.(type) {
		case results.EpisodeRecord:
			ep = v
		case RunResult:
			ep = RecordEpisode(rr.name, r.Index, r.Seed, rr.scenarioLabel, rr.mode, rr.expectCrashes, v)
			fresh = true
		default:
			errs = append(errs, fmt.Errorf("%s %s run %d: unexpected result type %T", rr.kind, rr.errName, r.Index, r.Value))
			continue
		}
		rec.Fold(ep)
		if fresh && rr.opts.sink != nil {
			if err := rr.opts.sink.Append(ep); err != nil {
				errs = append(errs, fmt.Errorf("%s %s run %d: persist: %w", rr.kind, rr.errName, r.Index, err))
			}
		}
	}
	if delivered < rr.runs {
		if err := eng.Context().Err(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		// Only a fully successful batch gets its aggregate stored;
		// episodes-without-aggregate is the durable marker of an
		// interrupted campaign.
		if st, ok := rr.opts.sink.(results.Store); ok {
			if err := st.PutCampaign(rec); err != nil {
				errs = append(errs, fmt.Errorf("%s %s: persist aggregate: %w", rr.kind, rr.errName, err))
			}
		}
	}
	return rec, errors.Join(errs...)
}

// RunCampaignOn executes runs episodes of the campaign with seeds
// derived from baseSeed on eng, which controls worker count,
// cancellation and progress reporting. The aggregate is bit-identical
// to a sequential run: episode seeds depend only on (baseSeed, index)
// and results fold in index order. On cancellation the partial
// aggregate is returned along with the context's error joined onto any
// per-run failures. Options attach a results sink and resume a
// previously persisted campaign.
func RunCampaignOn(eng *engine.Engine, c Campaign, runs int, baseSeed int64, oracles map[core.Vector]core.Oracle, opts ...RunOption) (CampaignResult, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	name := c.Name
	if o.record != "" {
		name = o.record
	}
	rec, err := execute(eng, recordedRun{
		kind:          "campaign",
		name:          name,
		errName:       c.Name,
		scenarioLabel: c.Scenario.Label(),
		mode:          c.Mode,
		expectCrashes: c.ExpectCrashes,
		runs:          runs,
		baseSeed:      baseSeed,
		opts:          o,
		mkJob: func(i int) engine.Job {
			return func(ctx context.Context, seed int64) (any, error) {
				return RunCtx(ctx, RunConfig{
					Source:       c.Scenario,
					Seed:         seed,
					recycleTrace: true,
					Attack: AttackSetup{
						Mode:               c.Mode,
						PreferDisappearFor: c.PreferDisappearFor,
						Policy:             c.Policy,
						// Episodes run concurrently; trained oracles keep
						// per-call inference scratch, so each worker's
						// Scratch clones them once and reuses the clones
						// for every episode it runs.
						Oracles: oracles,
					},
				})
			}
		},
	})
	return CampaignResult{Campaign: c, CampaignRecord: rec}, err
}

// RunGoldenOn executes attack-free episodes on eng. Records persist
// under "golden-" + the scenario label unless WithRecordName overrides
// it.
func RunGoldenOn(eng *engine.Engine, src scenario.Source, runs int, baseSeed int64, opts ...RunOption) (GoldenResult, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	name := "golden-" + src.Label()
	if o.record != "" {
		name = o.record
	}
	rec, err := execute(eng, recordedRun{
		kind:          "golden",
		name:          name,
		errName:       src.Label(),
		scenarioLabel: src.Label(),
		mode:          0,
		expectCrashes: true,
		runs:          runs,
		baseSeed:      baseSeed,
		opts:          o,
		mkJob: func(i int) engine.Job {
			return func(ctx context.Context, seed int64) (any, error) {
				return RunCtx(ctx, RunConfig{Source: src, Seed: seed, recycleTrace: true})
			}
		},
	})
	return GoldenResult{Source: src, CampaignRecord: rec}, err
}
