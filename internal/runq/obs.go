package runq

// Queue instrumentation: lifecycle counters and live gauges for the
// run queue, plus the per-job episode-rate tracker that feeds SSE
// progress events. All of it is observational: nothing outside
// internal/obs reads a metric back, so journal bytes and job state
// transitions cannot depend on it.

import (
	"time"

	"github.com/robotack/robotack/internal/obs"
)

var (
	qSubmitted = obs.NewCounter("robotack_runq_jobs_submitted_total",
		"Jobs accepted into the run queue.")
	qCompleted = obs.NewCounter("robotack_runq_jobs_completed_total",
		"Jobs finished successfully (local and remote).")
	qFailed = obs.NewCounter("robotack_runq_jobs_failed_total",
		"Jobs that ended in terminal failure.")
	qCancelled = obs.NewCounter("robotack_runq_jobs_cancelled_total",
		"Jobs cancelled by a client.")
	qRequeued = obs.NewCounter("robotack_runq_requeues_total",
		"Jobs returned to the queue (lost lease, worker shutdown, server shutdown).")
	qLeased = obs.NewCounter("robotack_runq_leases_total",
		"Job leases granted (local dispatch and remote workers).")
	qRenewed = obs.NewCounter("robotack_runq_lease_renewals_total",
		"Successful remote heartbeats.")
	qExpired = obs.NewCounter("robotack_runq_lease_expired_total",
		"Remote leases that expired without a heartbeat.")
	qDepth = obs.NewGauge("robotack_runq_queue_depth",
		"Jobs currently waiting in the queue.")
	qParked = obs.NewGauge("robotack_runq_leases_parked",
		"Remote lease requests currently parked on an empty queue.")
	qRunning = obs.NewGauge("robotack_runq_jobs_running",
		"Jobs currently executing (local and remote).")
)

// gaugesLocked refreshes the depth/running gauges after a state
// transition. Transitions are rare next to episodes, so the job scan
// is cheap.
func (q *Queue) gaugesLocked() {
	qDepth.Set(float64(len(q.pending)))
	running := 0
	for _, j := range q.jobs {
		if j.State == StateRunning {
			running++
		}
	}
	qRunning.Set(float64(running))
}

// rateState tracks one running attempt's episode throughput for SSE
// progress events: an exponential moving average over the deltas the
// executor (or remote heartbeats) report. Each job carries its own,
// reset when an attempt starts. Derived state only — never journaled,
// rebuilt from scratch on restart.
type rateState struct {
	lastDone int
	lastTime time.Time
	eps      float64
}

// observe folds a progress report into the rate estimate.
func (rs *rateState) observe(done int, now time.Time) {
	dt := now.Sub(rs.lastTime).Seconds()
	if done <= rs.lastDone || dt <= 0 {
		return
	}
	inst := float64(done-rs.lastDone) / dt
	if rs.eps == 0 {
		rs.eps = inst
	} else {
		rs.eps = 0.5*rs.eps + 0.5*inst
	}
	rs.lastDone = done
	rs.lastTime = now
}
