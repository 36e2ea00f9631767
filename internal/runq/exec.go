package runq

import (
	"context"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
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

// ExecuteRequest runs one request's batch on eng and returns its
// aggregate. It is the shared execution path of the local dispatcher
// and the remote worker: both produce records under the request's
// record name, via whatever sink/resume options the caller wires in.
func ExecuteRequest(eng *engine.Engine, req Request, oracles map[core.Vector]core.Oracle, opts ...experiment.RunOption) (results.CampaignRecord, error) {
	mode, err := ParseMode(req.Mode)
	if err != nil {
		return results.CampaignRecord{}, err
	}
	src, err := req.Source()
	if err != nil {
		return results.CampaignRecord{}, err
	}
	name := req.RecordName()
	opts = append(opts, experiment.WithRecordName(name))
	if mode == 0 {
		g, err := experiment.RunGoldenOn(eng, src, req.Runs, req.Seed, opts...)
		return g.CampaignRecord, err
	}
	var pol core.TriggerPolicy
	if req.Policy != nil {
		pol, err = req.Policy.Build()
		if err != nil {
			return results.CampaignRecord{}, err
		}
	}
	c := experiment.Campaign{
		Name:          name,
		Scenario:      src,
		Mode:          mode,
		ExpectCrashes: true,
		Policy:        pol,
	}
	r, err := experiment.RunCampaignOn(eng, c, req.Runs, req.Seed, oracles, opts...)
	return r.CampaignRecord, err
}
