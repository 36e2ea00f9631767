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
	// instead of the paper's trigger (nil: the default
	// core.SafetyHijackerConfig). The policy value is shared across the
	// batch's workers, so it must be stateless (see core.TriggerPolicy).
	Policy core.TriggerPolicy
}

// Golden is the attack-free baseline on src: mode 0, named "golden-"
// and the scenario label, counting crashes (the sanity baseline: the
// paper's golden runs are incident-free).
func Golden(src scenario.Source) Campaign {
	return Campaign{Name: "golden-" + src.Label(), Scenario: src, ExpectCrashes: true}
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
// same scenario and seeds, with the paper trigger replaced by p. The
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
}

// RunOption configures persistence and resumption for RunCampaignOn.
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
// campaign name and episode index) back into the aggregate instead of
// re-running them. Stored episodes must carry the seed the engine
// derives for their index; a mismatch fails the episode rather than
// silently mixing seed streams. The resumed aggregate is bit-identical
// to an uninterrupted run's.
func WithResume(s results.Store) RunOption {
	return func(o *runOptions) { o.resume = s }
}

// RunCampaignOn executes runs episodes of the campaign with seeds
// derived from baseSeed on eng, which controls worker count,
// cancellation and progress reporting. Records persist under c.Name.
// The aggregate is bit-identical to a sequential run: episode seeds
// depend only on (baseSeed, index) and results fold in index order.
// Every per-run failure is collected (errors.Join), not just the
// first. On cancellation the partial aggregate is returned with the
// context's error joined onto any per-run failures. Options attach a
// results sink and resume a previously persisted campaign.
func RunCampaignOn(eng *engine.Engine, c Campaign, runs int, baseSeed int64, oracles map[core.Vector]core.Oracle, opts ...RunOption) (CampaignResult, error) {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	// Every worker gets one episode Scratch for the whole batch:
	// pipelines, frame buffers and oracle clones are reused across the
	// episodes that worker runs.
	eng = withEpisodeScratch(eng)
	label := c.Scenario.Label()
	res := CampaignResult{Campaign: c, CampaignRecord: results.NewCampaign(c.Name, label, c.Mode, c.ExpectCrashes, baseSeed)}

	resumed := make(map[int]results.EpisodeRecord)
	if o.resume != nil {
		prior, err := o.resume.Episodes(c.Name)
		if err != nil {
			return res, fmt.Errorf("campaign %s: resume: %w", c.Name, err)
		}
		for _, p := range prior {
			if p.Index >= 0 && p.Index < runs {
				resumed[p.Index] = p
			}
		}
	}

	attack := AttackSetup{
		Mode:               c.Mode,
		PreferDisappearFor: c.PreferDisappearFor,
		Policy:             c.Policy,
		// Episodes run concurrently; trained oracles keep per-call
		// inference scratch, so each worker's Scratch clones them once
		// and reuses the clones for every episode it runs.
		Oracles: oracles,
	}
	run := func(ctx context.Context, seed int64) (any, error) {
		return RunCtx(ctx, RunConfig{Source: c.Scenario, Seed: seed, Attack: attack, recycleTrace: true})
	}
	jobs := make([]engine.Job, runs)
	for i := range jobs {
		p, ok := resumed[i]
		if !ok {
			jobs[i] = run
			continue
		}
		jobs[i] = func(ctx context.Context, seed int64) (any, error) {
			if p.Seed != seed {
				return nil, fmt.Errorf("stored episode ran with seed %d but this run derives %d; refusing to mix seed streams", p.Seed, seed)
			}
			return p, nil
		}
	}

	var errs []error
	delivered := 0
	for r := range eng.StreamOrdered(baseSeed, jobs) {
		delivered++
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("campaign %s run %d: %w", c.Name, r.Index, r.Err))
			continue
		}
		var ep results.EpisodeRecord
		fresh := false
		switch v := r.Value.(type) {
		case results.EpisodeRecord:
			ep = v
		case RunResult:
			ep = RecordEpisode(c.Name, r.Index, r.Seed, label, c.Mode, c.ExpectCrashes, v)
			fresh = true
		default:
			errs = append(errs, fmt.Errorf("campaign %s run %d: unexpected result type %T", c.Name, r.Index, r.Value))
			continue
		}
		res.Fold(ep)
		if fresh && o.sink != nil {
			if err := o.sink.Append(ep); err != nil {
				errs = append(errs, fmt.Errorf("campaign %s run %d: persist: %w", c.Name, r.Index, err))
			}
		}
	}
	if delivered < runs {
		if err := eng.Context().Err(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		// Only a fully successful batch gets its aggregate stored;
		// episodes-without-aggregate is the durable marker of an
		// interrupted campaign.
		if st, ok := o.sink.(results.Store); ok {
			if err := st.PutCampaign(res.CampaignRecord); err != nil {
				errs = append(errs, fmt.Errorf("campaign %s: persist aggregate: %w", c.Name, err))
			}
		}
	}
	return res, errors.Join(errs...)
}
