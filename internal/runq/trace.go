package runq

import (
	"strconv"
	"time"

	"github.com/robotack/robotack/internal/obs/trace"
)

// Queue-side tracing. Every job submitted while the queue has a tracer
// carries a TraceRef — the deterministic trace identity derived from
// (record name, seed) — journaled with the job so spans stay on one
// trace across restarts. The queue emits its spans retroactively, from
// recorded transition timestamps, so tracing adds no locks or clock
// reads to the dispatch hot path beyond what the transitions already
// do:
//
//	run          the root span, submit → terminal state
//	queue-wait   submit/requeue → dispatch or lease (per attempt)
//	dispatch     local execution, per attempt
//	lease        remote execution, per attempt (worker spans nest here)
//	heartbeat    a point span per lease renewal
//	requeue      a point span when an attempt is handed back
//
// Span IDs derive from (traceID, attempt, stream), so a worker that
// knows the job's TraceRef and attempt derives its parent lease span
// without the server sending it (the Traceparent header carries it
// anyway, for protocol observability).

// TraceRef is a job's trace identity: the trace ID and the root span
// every queue and worker span nests under. Journaled as hex strings.
type TraceRef struct {
	TraceID trace.ID `json:"trace_id"`
	Root    trace.ID `json:"root_span"`
}

// Traceparent renders the lease's traceparent-style header value for
// the given attempt: the trace ID plus the attempt's lease span.
func (r *TraceRef) Traceparent(attempt int) string {
	return trace.FormatTraceparent(uint64(r.TraceID), execSpanID(r, attempt))
}

// newTraceRef derives a request's trace identity.
func newTraceRef(req Request) *TraceRef {
	tid := trace.DeriveTraceID(req.RecordName(), req.Seed)
	return &TraceRef{
		TraceID: trace.ID(tid),
		Root:    trace.ID(trace.DeriveSpanID(tid, 0, trace.StreamRun)),
	}
}

// execSpanID is the span ID of one attempt's dispatch/lease span —
// derived identically by the server and the worker.
func execSpanID(r *TraceRef, attempt int) uint64 {
	return trace.DeriveSpanID(uint64(r.TraceID), uint64(attempt), trace.StreamLease)
}

// WithTracer attaches a tracer: submitted jobs get deterministic trace
// IDs and the queue emits lifecycle spans. Nil is a no-op, so callers
// can pass an unconditionally built (possibly nil) tracer.
func WithTracer(t *trace.Tracer) Option {
	return func(q *Queue) { q.tracer = t }
}

// Tracer returns the queue's tracer (nil when tracing is off) — the
// campaignd span-ingest endpoint emits forwarded worker spans through
// it.
func (q *Queue) Tracer() *trace.Tracer { return q.tracer }

// traced reports whether the job participates in tracing.
func (q *Queue) traced(j *Job) bool {
	return q.tracer != nil && j.Trace != nil
}

// spanLocked emits one of the job's lifecycle spans, running from
// start to now (a point span starts now).
func (q *Queue) spanLocked(j *Job, name string, id, parent uint64, start, now time.Time, attrs ...trace.Attr) {
	q.tracer.Emit(&trace.SpanData{
		TraceID: j.Trace.TraceID,
		SpanID:  trace.ID(id),
		Parent:  trace.ID(parent),
		Name:    name,
		Start:   start.UnixNano(),
		Dur:     now.Sub(start).Nanoseconds(),
		Attrs:   attrs,
	})
}

// traceDequeuedLocked closes the attempt's queue-wait span when the
// job leaves the queue for execution (local dispatch or remote lease).
// Attempt has already been incremented.
func (q *Queue) traceDequeuedLocked(j *Job, now time.Time) {
	j.executingAt = now
	if !q.traced(j) || j.enqueuedAt.IsZero() {
		return
	}
	q.spanLocked(j, "queue-wait", trace.DeriveSpanID(uint64(j.Trace.TraceID), uint64(j.Attempt), trace.StreamQueueWait),
		uint64(j.Trace.Root), j.enqueuedAt, now, trace.Attr{Key: "attempt", Value: strconv.Itoa(j.Attempt)})
}

// traceHeartbeatLocked emits a point span per lease renewal, nested
// under the attempt's lease span.
func (q *Queue) traceHeartbeatLocked(j *Job, now time.Time) {
	if !q.traced(j) {
		return
	}
	j.hbSeq++
	key := uint64(j.Attempt)<<32 | uint64(j.hbSeq)
	q.spanLocked(j, "heartbeat", trace.DeriveSpanID(uint64(j.Trace.TraceID), key, trace.StreamHeartbeat),
		execSpanID(j.Trace, j.Attempt), now, now, trace.Attr{Key: "worker", Value: j.Worker})
}

// traceExecEndLocked closes the attempt's dispatch/lease span with its
// outcome. Must run before the transition clears j.Worker. A job whose
// execution began in a previous process (executingAt zero) has no open
// exec span to close.
func (q *Queue) traceExecEndLocked(j *Job, now time.Time, outcome string) {
	if !q.traced(j) || j.executingAt.IsZero() {
		return
	}
	name := "lease"
	if j.Worker == LocalWorker {
		name = "dispatch"
	}
	q.spanLocked(j, name, execSpanID(j.Trace, j.Attempt), uint64(j.Trace.Root), j.executingAt, now,
		trace.Attr{Key: "worker", Value: j.Worker},
		trace.Attr{Key: "attempt", Value: strconv.Itoa(j.Attempt)},
		trace.Attr{Key: "outcome", Value: outcome})
	j.executingAt = time.Time{}
}

// traceRequeuedLocked marks an attempt handed back to the queue: the
// exec span closes with outcome requeue, a requeue point span lands,
// and the queue-wait clock restarts.
func (q *Queue) traceRequeuedLocked(j *Job, now time.Time) {
	defer func() { j.enqueuedAt = now }()
	if !q.traced(j) {
		return
	}
	q.traceExecEndLocked(j, now, "requeue")
	q.spanLocked(j, "requeue", trace.DeriveSpanID(uint64(j.Trace.TraceID), uint64(j.Attempt), trace.StreamRequeue),
		uint64(j.Trace.Root), now, now, trace.Attr{Key: "attempt", Value: strconv.Itoa(j.Attempt)})
}

// traceRunEndLocked closes the root span when the job reaches a
// terminal state.
func (q *Queue) traceRunEndLocked(j *Job, now time.Time, state State) {
	if !q.traced(j) {
		return
	}
	start := j.submittedAt
	if start.IsZero() {
		start = now
	}
	q.spanLocked(j, "run", uint64(j.Trace.Root), 0, start, now,
		trace.Attr{Key: "campaign", Value: j.Request.RecordName()},
		trace.Attr{Key: "mode", Value: j.Request.Mode},
		trace.Attr{Key: "state", Value: string(state)})
}
