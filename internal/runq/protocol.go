package runq

import (
	"time"

	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
)

// The wire types of the remote-worker protocol. A worker process on
// another machine drives the queue over five verbs:
//
//	POST /lease                  LeaseRequest  → LeaseResponse; on an empty queue the
//	                             request parks up to wait_ms (capped at MaxLeaseWait)
//	                             for a job, then answers 204
//	POST /runs/{id}/heartbeat    HeartbeatRequest; 409 means the lease is lost
//	POST /runs/{id}/episodes     EpisodesRequest, streamed in batches as episodes complete
//	POST /runs/{id}/spans        SpansRequest, the worker's trace spans (traced jobs only)
//	POST /runs/{id}/complete     CompleteRequest with the final aggregate
//	POST /runs/{id}/fail         FailRequest (requeue=true hands the job back)
//
// Every worker request also identifies itself in headers: WorkerHeader
// names the worker, and — for requests belonging to a traced job —
// TraceparentHeader carries the job's trace context (the server sets
// the same header on lease responses). campaignd's route middleware
// logs both.
//
// Episode records flow through the server into the served results
// store, so a worker crash loses nothing that was acknowledged: the
// requeued job's next attempt resumes from exactly those episodes.

// WorkerHeader names the requesting worker on every lease-protocol
// request (the JSON bodies repeat it; the header makes it visible to
// middleware and access logs without body parsing).
const WorkerHeader = "X-Robotack-Worker"

// TraceparentHeader carries the traceparent-style trace context
// ("00-<trace-id>-<span-id>-01") of the job a request belongs to.
const TraceparentHeader = "Traceparent"

// LeaseRequest asks for the next queued job.
type LeaseRequest struct {
	// Worker is the worker's self-chosen name; heartbeats, episode
	// appends and completion must carry the same name.
	Worker string `json:"worker"`
	// WaitMillis is how long the request may wait on an empty queue
	// for a job to arrive, in milliseconds; the server caps it at
	// MaxLeaseWait. Zero or absent asks for an answer at once. A
	// server that predates the field ignores it and answers at once.
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

// HeartbeatRequest extends the lease and reports progress.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
}

// EpisodesRequest streams completed episode records into the served
// store.
type EpisodesRequest struct {
	Worker   string                  `json:"worker"`
	Episodes []results.EpisodeRecord `json:"episodes"`
}

// SpansRequest forwards a traced job's completed worker-side spans
// (worker-job, and engine-job spans the episodes annotated) into the
// server's trace sink, so one sink holds the whole cross-process trace.
// The server refuses the batch if a span is on another trace or
// exceeds trace.CheckBounds.
type SpansRequest struct {
	Worker string           `json:"worker"`
	Spans  []trace.SpanData `json:"spans"`
}

// CompleteRequest finishes a job, delivering the campaign aggregate
// the worker folded.
type CompleteRequest struct {
	Worker   string                  `json:"worker"`
	Campaign *results.CampaignRecord `json:"campaign,omitempty"`
}

// FailRequest reports a failed or abandoned execution.
type FailRequest struct {
	Worker string `json:"worker"`
	Error  string `json:"error,omitempty"`
	// Requeue hands the job back to the queue (a worker shutting down)
	// instead of failing it terminally.
	Requeue bool `json:"requeue,omitempty"`
}
