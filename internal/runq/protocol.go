package runq

import (
	"time"

	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
)

// The wire types of the remote-worker protocol. A worker process on
// another machine drives the queue over six verbs:
//
//	POST /lease                  LeaseRequest  → LeaseResponse; on an empty queue the
//	                             request parks up to wait_ms (capped at MaxLeaseWait)
//	                             for a job, then answers 204
//	POST /runs/{id}/heartbeat    HeartbeatRequest: extends the lease, reports progress
//	POST /runs/{id}/episodes     EpisodesRequest, streamed in batches as episodes complete
//	POST /runs/{id}/spans        SpansRequest, the worker's trace spans (traced jobs only)
//	POST /runs/{id}/complete     CompleteRequest: the server folds the job's stored
//	                             episodes into its aggregate; 409 while one is missing
//	POST /runs/{id}/fail         FailRequest (requeue=true hands the job back)
//
// Every request after the lease names its Holder: the worker and the
// attempt its lease was granted for. A request whose holder is not the
// job's current one (the job was cancelled, requeued or leased again,
// maybe to the same worker) answers 409, and so does one with no
// attempt: workers and server ship from one build, so none omits it.
//
// Every worker request also identifies itself in headers: WorkerHeader
// names the worker, and — for requests belonging to a traced job —
// TraceparentHeader carries the job's trace context (the server sets
// the same header on lease responses). campaignd's route middleware
// logs both.
//
// Episode records flow through the server into the served results
// store, so a worker crash loses nothing that was acknowledged: the
// requeued job's next attempt resumes from exactly those episodes. The
// store is also the one source of the job's aggregate: the worker
// uploads episodes, never a fold of them.

// WorkerHeader names the requesting worker on every lease-protocol
// request (the JSON bodies repeat it; the header makes it visible to
// middleware and access logs without body parsing).
const WorkerHeader = "X-Robotack-Worker"

// TraceparentHeader carries the traceparent-style trace context
// ("00-<trace-id>-<span-id>-01") of the job a request belongs to.
const TraceparentHeader = "Traceparent"

// LeaseRequest asks for the next queued job.
type LeaseRequest struct {
	// Worker is the worker's self-chosen name; every later request of
	// the lease carries it, with the attempt, in its Holder.
	Worker string `json:"worker"`
	// WaitMillis is how long the request may wait on an empty queue
	// for a job to arrive, in milliseconds; the server caps it at
	// MaxLeaseWait. Zero or absent asks for an answer at once. A
	// queue that is shutting down answers 204 at once, whatever the
	// wait.
	WaitMillis int64 `json:"wait_ms,omitempty"`
}

// Wait is the request's wait as a duration, clamped to
// [0, MaxLeaseWait].
func (r LeaseRequest) Wait() time.Duration {
	return time.Duration(min(max(r.WaitMillis, 0), MaxLeaseWait.Milliseconds())) * time.Millisecond
}

// LeaseResponse hands one job to the worker.
type LeaseResponse struct {
	Job Job `json:"job"`
	// LeaseTTLMillis is how long the lease lives without a heartbeat.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// Holder names the lease a worker request acts under: the worker, and
// the attempt (Job.Attempt) its lease was granted for.
type Holder struct {
	Worker  string `json:"worker"`
	Attempt int    `json:"attempt"`
}

// Lease is the lease the request acts under: every request type after
// the lease embeds a Holder, so campaignd's one lease gate reads it
// from any of them.
func (h Holder) Lease() Holder { return h }

// HeartbeatRequest extends the lease and reports progress. The job's
// total is its request's runs; a heartbeat cannot change it.
type HeartbeatRequest struct {
	Holder
	Done int `json:"done"`
}

// EpisodesRequest streams completed episode records into the served
// store.
type EpisodesRequest struct {
	Holder
	Episodes []results.EpisodeRecord `json:"episodes"`
}

// SpansRequest forwards a traced job's completed worker-side spans
// (worker-job, and engine-job spans the episodes annotated) into the
// server's trace sink, so one sink holds the whole cross-process trace.
// The server refuses the batch if a span is on another trace or
// exceeds trace.CheckBounds.
type SpansRequest struct {
	Holder
	Spans []trace.SpanData `json:"spans"`
}

// CompleteRequest finishes a job. It carries no aggregate: the server
// folds the job's stored episodes itself (Job.Fold).
type CompleteRequest struct {
	Holder
}

// FailRequest reports a failed or abandoned execution.
type FailRequest struct {
	Holder
	Error string `json:"error,omitempty"`
	// Requeue hands the job back to the queue (a worker shutting down,
	// or one whose episodes upload got no answer) instead of failing it
	// terminally.
	Requeue bool `json:"requeue,omitempty"`
}
