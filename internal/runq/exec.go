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

// LocalExecutor runs jobs in-process with the analytic oracle: each job
// gets its own engine (cancellable via the job's context, which is how
// DELETE /runs/{id} stops a run mid-flight), episodes stream into the
// store as they complete, and a resuming attempt folds the store's
// episodes back so the aggregate is bit-identical to an uninterrupted
// run.
type LocalExecutor struct {
	// Store receives episode records and the final aggregate; it is
	// also the resume source for re-executed jobs.
	Store results.Store
	// Workers is the per-job engine pool size (<=0: one per CPU).
	Workers int
}

// Execute implements Executor.
func (e LocalExecutor) Execute(ctx context.Context, job Job, progress func(done, total int)) error {
	eng := engine.New(
		engine.WithContext(ctx),
		engine.WithWorkers(e.Workers),
		engine.WithProgress(progress),
	)
	var opts []experiment.RunOption
	if e.Store != nil {
		opts = append(opts, experiment.WithSink(e.Store))
		if job.Resume() {
			opts = append(opts, experiment.WithResume(e.Store))
		}
	}
	_, err := ExecuteRequest(eng, job.Request, nil, opts...)
	return err
}

// identity is the empty campaign record the request's episodes fold
// into: record name, source label, mode, crash eligibility (a queued
// run always counts crashes) and base seed. ExecuteRequest runs under
// it and Job.Fold folds under it, so the two records agree.
func (r *Request) identity() (results.CampaignRecord, scenario.Source, error) {
	mode, err := ParseMode(r.Mode)
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
// aggregate. It is the shared execution path of the local dispatcher
// and the remote worker: both produce records under the request's
// identity, via whatever sink/resume options the caller wires in.
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

// Fold folds the job's stored episodes — one per index, sorted by
// index, as results.Store.Episodes returns them — into the aggregate
// ExecuteRequest computes from the same episodes. It refuses while an
// index in [0, Request.Runs) is missing, or holds an episode run with a
// seed other than the one the engine derives for that index.
func (j *Job) Fold(eps []results.EpisodeRecord) (results.CampaignRecord, error) {
	meta, _, err := j.Request.identity()
	if err != nil {
		return results.CampaignRecord{}, err
	}
	runs := j.Request.Runs
	for i := 0; i < runs; i++ {
		if seed := engine.AdditiveSeeds(meta.BaseSeed, i); i >= len(eps) || eps[i].Index != i || eps[i].Seed != seed {
			return results.CampaignRecord{}, fmt.Errorf("job %d: no episode %d of %d with seed %d is stored", j.ID, i, runs, seed)
		}
	}
	return results.Aggregate(meta, eps[:runs]), nil
}
