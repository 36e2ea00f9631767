// Package trace is the fleet's span tracer, built in the style of
// internal/obs: allocation-free on the hot path and strictly
// observational — tracing an episode must never change its result
// bytes. Its one import from this module is internal/stats, a leaf
// package, for the SplitMix64 finalizer.
//
// A trace follows one campaign run end to end: campaignd opens a root
// span when the run is submitted, runq records queue-wait, dispatch/
// lease, heartbeat and requeue spans, robotack-worker continues the
// trace across the process boundary (the lease protocol carries
// traceparent-style headers), and the engine emits one span per job.
// An episode annotates its engine job's span with its frame counts and
// the frame-stage latencies the perception.Stage* instrumentation
// points already time, so every episode of a traced campaign reaches
// the sink.
//
// Determinism is the same contract the engine makes: every trace and
// span ID is derived with the SplitMix64 finalizer (stats.Mix64) from
// values that are themselves pure functions of (baseSeed, jobIndex) —
// so a re-run of the same campaign produces byte-identical IDs, and a
// server and a worker can each derive the other's span IDs without
// exchanging them.
package trace

import (
	"context"
	"sync"
	"time"

	"github.com/robotack/robotack/internal/stats"
)

// splitmix is one SplitMix64 step from state z: the mixer the engine's
// SplitMixSeeds and RNG.SplitSeed use, so ID quality matches the seed
// derivation the repo already trusts.
func splitmix(z uint64) uint64 { return stats.Mix64(z + stats.Golden64) }

// DeriveTraceID derives the deterministic trace ID of one campaign run
// from its record name and base seed: FNV-1a over the name, mixed with
// the seed through the finalizer. Never zero (zero means "no trace").
func DeriveTraceID(name string, seed int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	id := splitmix(h ^ splitmix(uint64(seed)))
	if id == 0 {
		id = 1
	}
	return id
}

// Streams partition the span-ID space so spans keyed by the same value
// (a job's attempt number, an engine job's seed) cannot collide across
// span kinds. Both ends of the lease protocol derive the same IDs from
// the same (traceID, key, stream) triple — that is what lets a worker
// parent its spans under the server's lease span without the server
// ever sending the span ID.
const (
	StreamRun uint64 = iota + 1
	StreamQueueWait
	StreamLease
	StreamHeartbeat
	StreamRequeue
	StreamWorkerJob
	StreamEngineJob
)

// DeriveSpanID derives a deterministic span ID within a trace. key is
// the span's natural identity in its stream: the lease attempt for
// queue spans, the derived job seed for engine-job spans. Never zero.
func DeriveSpanID(traceID, key, stream uint64) uint64 {
	id := splitmix(traceID ^ splitmix(key*stats.Golden64^stream))
	if id == 0 {
		id = 1
	}
	return id
}

// SpanContext carries the active trace through context.Context and
// across process boundaries: who to emit to, which trace, and the
// parent span for children started under it.
type SpanContext struct {
	Tracer  *Tracer
	TraceID uint64
	SpanID  uint64

	// span is the live span behind SpanID when Span.Context built this
	// context (SpanFromContext), nil when it was built from IDs alone.
	span *Span
}

type ctxKey struct{}

// NewContext returns ctx with sc attached.
func NewContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the active SpanContext. ok is false when ctx
// carries none (or a zero one) — the fast path for untraced runs is a
// single map-free context lookup per job, never per frame.
func FromContext(ctx context.Context) (SpanContext, bool) {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc, sc.Tracer != nil && sc.TraceID != 0
}

// SpanFromContext returns the live span that Span.Context made the
// active parent of ctx, or nil (which every Span method accepts). For
// an episode run as an engine job it is the job's span.
func SpanFromContext(ctx context.Context) *Span {
	sc, _ := ctx.Value(ctxKey{}).(SpanContext)
	return sc.span
}

// Frame-stage slots on a span. Callers annotate stages by
// index (the experiment runner uses perception.Stage* constants, which
// fit); MaxStages bounds the fixed per-span array so annotation stays
// allocation-free.
const MaxStages = 8

// maxAttrs bounds the fixed per-span attribute array; SetAttr drops
// overflow rather than allocating.
const maxAttrs = 4

// Attr is one string key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one in-flight span. Spans are pooled by their Tracer and
// recycled on Finish; all methods are nil-receiver safe so untraced
// code paths cost one branch. A Span must not be touched after Finish.
type Span struct {
	tracer *Tracer
	start  time.Time

	d       SpanData
	nstages int
	stages  [MaxStages]int64
	nattrs  int
	attrs   [maxAttrs]Attr
}

// Tracer creates, pools and emits spans for one service (a server or
// worker process, named in every span it emits).
type Tracer struct {
	service string
	sink    Sink
	pool    sync.Pool
}

// New creates a Tracer emitting to sink under the given service name.
// A nil sink means the tracer drops everything (NopSink).
func New(service string, sink Sink) *Tracer {
	if sink == nil {
		sink = NopSink{}
	}
	t := &Tracer{service: service, sink: sink}
	t.pool.New = func() any { return new(Span) }
	return t
}

// StartSpan begins a span under sc with the given deterministic span
// ID. Nil-safe: a nil tracer returns a nil span, and every Span method
// tolerates nil.
func (t *Tracer) StartSpan(sc SpanContext, name string, spanID uint64) *Span {
	if t == nil {
		return nil
	}
	s := t.pool.Get().(*Span)
	*s = Span{tracer: t, start: time.Now()}
	s.d = SpanData{
		TraceID: ID(sc.TraceID),
		SpanID:  ID(spanID),
		Parent:  ID(sc.SpanID),
		Name:    name,
		Service: t.service,
		Start:   s.start.UnixNano(),
	}
	return s
}

// Emit hands a fully built SpanData straight to the sink — the path
// for retroactive spans assembled from recorded timestamps (runq's
// queue-wait and lease spans) and for spans forwarded from another
// process (the worker-span ingest endpoint preserves the origin
// service name). The sink must not retain d's slices.
func (t *Tracer) Emit(d *SpanData) {
	if t == nil {
		return
	}
	if d.Service == "" {
		d.Service = t.service
	}
	t.sink.Emit(d)
}

// Close closes the sink if it is closable and returns its error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if c, ok := t.sink.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// Context returns ctx with this span as the active parent, so children
// started under the returned context nest beneath it and in-process
// work under it can annotate it (SpanFromContext).
func (s *Span) Context(ctx context.Context) context.Context {
	if s == nil {
		return ctx
	}
	return NewContext(ctx, SpanContext{
		Tracer:  s.tracer,
		TraceID: uint64(s.d.TraceID),
		SpanID:  uint64(s.d.SpanID),
		span:    s,
	})
}

// SetSeed records the seed the span's job ran with.
func (s *Span) SetSeed(seed int64) {
	if s == nil {
		return
	}
	s.d.Seed = seed
}

// StageAdd accumulates d of stage latency into the span's stage slot.
// Allocation-free: a fixed array add and two stores.
func (s *Span) StageAdd(stage int, d time.Duration) {
	if s == nil || stage < 0 || stage >= MaxStages {
		return
	}
	s.stages[stage] += int64(d)
	if stage >= s.nstages {
		s.nstages = stage + 1
	}
}

// FrameDone counts one simulation frame against the span; sampled
// marks frames whose stage latencies were annotated, so analysis can
// scale stage totals back to full-episode estimates.
func (s *Span) FrameDone(sampled bool) {
	if s == nil {
		return
	}
	s.d.Frames++
	if sampled {
		s.d.SampledFrames++
	}
}

// SetAttr annotates the span. At most maxAttrs attributes stick;
// overflow is dropped, not allocated for.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.nattrs >= maxAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Value: value}
	s.nattrs++
}

// Finish completes the span: it goes to the sink, and the Span returns
// to the pool. The span must not be used afterwards.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	t := s.tracer
	s.d.Dur = int64(time.Since(s.start))
	if s.nstages > 0 {
		s.d.Stages = s.stages[:s.nstages]
	}
	if s.nattrs > 0 {
		s.d.Attrs = s.attrs[:s.nattrs]
	}
	t.sink.Emit(&s.d)
	*s = Span{}
	t.pool.Put(s)
}
