package runq

import (
	"context"
	"fmt"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
)

// LocalExecutor runs jobs in-process with the analytic oracle, through
// the runner remote workers use (Job.run): each job gets its own engine
// (cancellable via the job's context, which is how DELETE /runs/{id}
// stops a run mid-flight), episodes stream into the store as they
// complete, and a resuming attempt folds the job's own stored episodes
// back so the aggregate is bit-identical to an uninterrupted run.
type LocalExecutor struct {
	// Store receives episode records and the final aggregate; it is
	// also the resume source for re-executed jobs. It must be set.
	Store results.Store
	// Workers is the per-job engine pool size (<=0: one per CPU).
	Workers int
}

// Execute implements Executor.
func (e LocalExecutor) Execute(ctx context.Context, job Job, progress func(done, total int)) error {
	return job.run(ctx, e.Workers, nil, progress, e.Store, e.Store.Episodes)
}

// run is the one runner of a leased job, for the local slot and the
// remote worker alike: it executes the request on its own engine under
// ctx, reporting progress and appending fresh episodes to sink. A
// resuming attempt (Resume) reads the episodes stored under the job's
// record name, reuses those the job owns (Own) and re-runs the rest.
func (j Job) run(ctx context.Context, workers int, oracles map[core.Vector]core.Oracle, progress func(done, total int),
	sink results.Sink, stored func(name string) ([]results.EpisodeRecord, error)) error {
	opts := []experiment.RunOption{experiment.WithSink(sink)}
	if j.Resume() {
		eps, err := stored(j.Request.RecordName())
		if err != nil {
			return fmt.Errorf("read stored episodes: %w", err)
		}
		own := results.NewMemStore()
		for _, ep := range j.own(eps) {
			if err := own.Append(ep); err != nil {
				return err
			}
		}
		opts = append(opts, experiment.WithResume(own))
	}
	eng := engine.New(
		engine.WithContext(ctx),
		engine.WithWorkers(workers),
		engine.WithProgress(progress),
	)
	_, err := ExecuteRequest(eng, j.Request, oracles, opts...)
	return err
}

// identity is the empty campaign record the request's episodes fold
// into: record name, source label, mode, crash eligibility (a queued
// run always counts crashes) and base seed. ExecuteRequest runs under
// it and Job.Fold folds under it, so the two records agree.
func (r *Request) identity() (results.CampaignRecord, scenario.Source, error) {
	mode, err := core.ParseMode(r.Mode)
	if err != nil {
		return results.CampaignRecord{}, nil, err
	}
	src, err := r.Source()
	if err != nil {
		return results.CampaignRecord{}, nil, err
	}
	return results.NewCampaign(r.RecordName(), src.Label(), mode, true, r.Seed), src, nil
}

// ExecuteRequest runs one request's batch on eng and returns its
// aggregate, with records under the request's identity. Job.run calls
// it with the job's sink and resume set; an in-process reference run
// calls it directly.
func ExecuteRequest(eng *engine.Engine, req Request, oracles map[core.Vector]core.Oracle, opts ...experiment.RunOption) (results.CampaignRecord, error) {
	meta, src, err := req.identity()
	if err != nil {
		return results.CampaignRecord{}, err
	}
	var pol core.TriggerPolicy
	if req.Policy != nil {
		pol, err = req.Policy.Build()
		if err != nil {
			return results.CampaignRecord{}, err
		}
	}
	c := experiment.Campaign{
		Name:          meta.Name,
		Scenario:      src,
		Mode:          meta.Mode,
		ExpectCrashes: meta.ExpectCrashes,
		Policy:        pol,
	}
	r, err := experiment.RunCampaignOn(eng, c, req.Runs, meta.BaseSeed, oracles, opts...)
	return r.CampaignRecord, err
}

// Own reports why ep is not one of the job's own episodes, or nil when
// it is: an own episode carries the job's record name, a record version
// this build reads, an index in [0, Request.Runs) and the seed the
// engine derives for that index. It is the one ownership rule: the
// episode upload refuses what it rejects, a resuming attempt reuses
// only what it accepts, and Fold folds only that.
func (j *Job) Own(ep results.EpisodeRecord) error {
	name := j.Request.RecordName()
	switch {
	case ep.Campaign != name:
		return fmt.Errorf("episode %d is for campaign %q, job %d writes %q", ep.Index, ep.Campaign, j.ID, name)
	case ep.V > results.Version:
		return fmt.Errorf("episode %d is record v%d, newer than supported v%d", ep.Index, ep.V, results.Version)
	case ep.Index < 0 || ep.Index >= j.Request.Runs:
		return fmt.Errorf("episode index %d out of range [0,%d)", ep.Index, j.Request.Runs)
	}
	if seed := engine.AdditiveSeeds(j.Request.Seed, ep.Index); ep.Seed != seed {
		return fmt.Errorf("episode %d ran with seed %d, job %d derives %d", ep.Index, ep.Seed, j.ID, seed)
	}
	return nil
}

// own returns the job's own episodes among eps, in their order.
func (j *Job) own(eps []results.EpisodeRecord) []results.EpisodeRecord {
	var out []results.EpisodeRecord
	for _, ep := range eps {
		if j.Own(ep) == nil {
			out = append(out, ep)
		}
	}
	return out
}

// Fold folds the job's own episodes among eps — one per index, sorted
// by index, as results.Store.Episodes returns them — into the aggregate
// ExecuteRequest computes from the same episodes. It refuses while an
// index in [0, Request.Runs) holds no episode the job owns.
func (j *Job) Fold(eps []results.EpisodeRecord) (results.CampaignRecord, error) {
	meta, _, err := j.Request.identity()
	if err != nil {
		return results.CampaignRecord{}, err
	}
	own, runs := j.own(eps), j.Request.Runs
	for i := 0; i < runs; i++ {
		if i >= len(own) || own[i].Index != i {
			return results.CampaignRecord{}, fmt.Errorf("job %d: no episode %d of %d with seed %d is stored", j.ID, i, runs, engine.AdditiveSeeds(meta.BaseSeed, i))
		}
	}
	return results.Aggregate(meta, own[:runs]), nil
}
