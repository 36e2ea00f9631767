// Package engine is the repo's single batch-execution API: a
// worker-pool runner for batches of independent closed-loop jobs.
// The paper's evaluation (Table II, Figs. 6-8) is hundreds of
// independent episodes per campaign, which makes campaigns
// embarrassingly parallel; every harness in the repo (campaigns,
// golden baselines, training-data generation, the Fig. 5
// characterization) submits its episodes through an Engine.
//
// A batch runs one of two ways: StreamOrdered yields each job's
// Result as soon as every lower-index job has delivered, for consumers
// that fold or persist incrementally, and Map collects typed outputs.
//
// Determinism is the central contract: each job receives a seed
// derived from (baseSeed, jobIndex) only, and both entry points deliver
// in submission order, so aggregates are bit-identical regardless of
// worker count or completion order.
package engine

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/stats"
)

// Job-level instrumentation: latency and throughput of individual
// engine jobs across every batch in the process. Purely observational
// — seeds remain a function of (baseSeed, index) alone.
var (
	jobSeconds = obs.NewHistogram("robotack_engine_job_seconds",
		"Engine job (episode) wall time.", obs.ExpBuckets(1e-4, 2, 16))
	jobsTotal = obs.NewCounter("robotack_engine_jobs_total",
		"Engine jobs completed (including failed).")
)

// Job is one unit of work — typically a single closed-loop episode.
// It receives the engine's context (canceled jobs should return
// promptly with ctx.Err()) and a seed derived deterministically from
// the batch's base seed and the job's index.
type Job func(ctx context.Context, seed int64) (any, error)

// Result carries one job's outcome.
type Result struct {
	// Index is the job's position in the submitted batch.
	Index int
	// Seed is the derived seed the job ran with.
	Seed int64
	// Value is the job's payload (nil when Err is non-nil).
	Value any
	// Err is the job's failure, if any.
	Err error
}

// AdditiveSeeds is the engine's job-seed derivation, baseSeed + index.
// It matches the repo's historical sequential campaigns, so a parallel
// campaign reproduces the sequential results bit for bit.
func AdditiveSeeds(baseSeed int64, index int) int64 {
	return baseSeed + int64(index)
}

// SplitMixSeeds is an alternative derivation that decorrelates nearby
// indices with the SplitMix64 finalizer (stats.Mix64), for workloads
// where adjacent additive seeds would correlate.
func SplitMixSeeds(baseSeed int64, index int) int64 {
	return int64(stats.Mix64(uint64(baseSeed) + uint64(index)*stats.Golden64))
}

// Engine runs batches of jobs on a fixed-size worker pool.
type Engine struct {
	workers     int
	ctx         context.Context
	progress    func(done, total int)
	workerState func() any
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers sets the worker-pool size. Values below 1 mean
// DefaultWorkers.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n >= 1 {
			e.workers = n
		}
	}
}

// WithContext attaches a cancellation context: once it is canceled,
// no further jobs are dispatched, StreamOrdered closes its channel
// once the jobs already running have delivered, and Map returns the
// context's error.
func WithContext(ctx context.Context) Option {
	return func(e *Engine) { e.ctx = ctx }
}

// WithProgress registers a callback invoked (serialized) after each
// job completes, with the number done and the batch total.
func WithProgress(fn func(done, total int)) Option {
	return func(e *Engine) { e.progress = fn }
}

// WithWorkerState registers a factory producing one state value per
// worker goroutine per batch. Jobs retrieve their worker's state with
// WorkerState(ctx). Because a worker runs its jobs sequentially, the
// state needs no locking — it is the hook for per-worker scratch
// (pooled pipelines, cloned oracles) that episodes reuse instead of
// reallocating. The factory is invoked lazily, on a worker's first
// job; state must never leak between workers, and jobs must leave it
// reset for the next job.
func WithWorkerState(fn func() any) Option {
	return func(e *Engine) { e.workerState = fn }
}

// workerStateKey carries the per-worker state in the job context.
type workerStateKey struct{}

// WorkerState returns the value the engine's WithWorkerState factory
// produced for the executing worker, or nil when the engine has no
// factory (or ctx is not an engine job context).
func WorkerState(ctx context.Context) any {
	return ctx.Value(workerStateKey{})
}

// With derives a new Engine from e with the given options applied —
// the base engine is unchanged, so harnesses can attach batch-specific
// wiring (typically WithWorkerState) to a caller-provided engine.
func (e *Engine) With(opts ...Option) *Engine {
	out := *e
	for _, opt := range opts {
		opt(&out)
	}
	return &out
}

// DefaultWorkers is the default pool size: one worker per available
// CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// New creates an Engine. With no options it uses DefaultWorkers
// workers and a background context.
func New(opts ...Option) *Engine {
	e := &Engine{
		workers: DefaultWorkers(),
		ctx:     context.Background(),
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Workers reports the configured pool size.
func (e *Engine) Workers() int { return e.workers }

// Context returns the engine's cancellation context, so batch
// consumers (e.g. streaming aggregators built on StreamOrdered) can
// distinguish a canceled batch from a completed one.
func (e *Engine) Context() context.Context { return e.ctx }

// stream executes the batch and returns a channel that yields one
// Result per completed job, in completion order, for StreamOrdered to
// reorder. The channel is closed once every dispatched job has
// finished; on cancellation no further jobs start but every job that
// did run still delivers its Result. The channel is buffered to the
// batch size, so delivery never blocks a worker.
func (e *Engine) stream(baseSeed int64, jobs []Job) <-chan Result {
	// Full-batch buffering keeps delivery non-blocking: a completed
	// job's result is never dropped in a cancellation race and never
	// pins a worker to an abandoned consumer.
	out := make(chan Result, len(jobs))
	workers := e.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	// Trace context, resolved once per batch: when the engine's context
	// carries an active span (the lease or worker-job span), every job
	// gets its own child span whose ID derives from the job's seed — so
	// reruns of the same campaign produce identical span IDs. The span
	// carries the seed and is the job context's live span, which an
	// episode run as the job annotates (trace.SpanFromContext); the
	// engine finishes it when the job returns.
	sc, traced := trace.FromContext(e.ctx)

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range jobs {
			select {
			case idx <- i:
			case <-e.ctx.Done():
				return
			}
		}
	}()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobCtx := e.ctx
			seconds, total := jobSeconds.Handle(), jobsTotal.Handle()
			for i := range idx {
				if e.workerState != nil && jobCtx == e.ctx {
					jobCtx = context.WithValue(e.ctx, workerStateKey{}, e.workerState())
				}
				seed := AdditiveSeeds(baseSeed, i)
				start := time.Now()
				runCtx := jobCtx
				var sp *trace.Span
				if traced {
					sp = sc.Tracer.StartSpan(sc, "engine-job",
						trace.DeriveSpanID(sc.TraceID, uint64(seed), trace.StreamEngineJob))
					sp.SetSeed(seed)
					runCtx = sp.Context(jobCtx)
				}
				v, err := jobs[i](runCtx, seed)
				sp.Finish()
				seconds.Observe(time.Since(start).Seconds())
				total.Add(1)
				if e.progress != nil {
					mu.Lock()
					done++
					e.progress(done, len(jobs))
					mu.Unlock()
				}
				out <- Result{Index: i, Seed: seed, Value: v, Err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// StreamOrdered executes the batch and yields results in submission
// (index) order: a completed job's result is held back until every
// lower-index job has been delivered. This is the ordering hook that
// lets a consumer fold aggregates or append to an external log
// incrementally — episode k lands before episode k+1 — while the jobs
// themselves still run on the full worker pool. The channel is
// buffered to the batch size, so a consumer may stop ranging early
// without stranding the workers, and it closes once every dispatched
// job has delivered; on cancellation the jobs that did complete after
// a gap are flushed at the end, still in index order.
func (e *Engine) StreamOrdered(baseSeed int64, jobs []Job) <-chan Result {
	out := make(chan Result, len(jobs))
	go func() {
		defer close(out)
		pending := make(map[int]Result)
		next := 0
		for r := range e.stream(baseSeed, jobs) {
			pending[r.Index] = r
			for {
				rr, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				out <- rr
				next++
			}
		}
		// A canceled batch can leave completed results beyond a job
		// that never ran; flush them in index order.
		rest := make([]int, 0, len(pending))
		for i := range pending {
			rest = append(rest, i)
		}
		sort.Ints(rest)
		for _, i := range rest {
			out <- pending[i]
		}
	}()
	return out
}

// Map is the typed batch helper: it runs fn once per item and returns
// the outputs in item order. A failed item's output is the zero value.
// On cancellation the error is the context's, and items whose jobs
// never ran hold zero values too; otherwise it is the first failed
// item's error by index, with every other output filled in.
func Map[T, R any](e *Engine, baseSeed int64, items []T, fn func(ctx context.Context, seed int64, item T) (R, error)) ([]R, error) {
	jobs := make([]Job, len(items))
	for i := range items {
		item := items[i]
		jobs[i] = func(ctx context.Context, seed int64) (any, error) {
			return fn(ctx, seed, item)
		}
	}
	out := make([]R, len(items))
	var firstErr error
	ran := 0
	for r := range e.StreamOrdered(baseSeed, jobs) {
		ran++
		switch {
		case r.Err != nil:
			if firstErr == nil {
				firstErr = r.Err
			}
		case r.Value != nil:
			out[r.Index] = r.Value.(R)
		}
	}
	if ran < len(jobs) {
		if err := e.ctx.Err(); err != nil {
			return out, err
		}
	}
	return out, firstErr
}
