package runq

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
)

// Worker is the remote-worker client: it leases jobs from a
// robotack-serve queue over HTTP, executes them on a local engine,
// heartbeats while they run, streams episode records back into the
// served store as they complete, and reports completion, from which
// the server folds the stored episodes into the job's aggregate.
// Several Workers on several machines drain one queue concurrently.
type Worker struct {
	// Server is the queue server's base URL, e.g. "http://host:8077".
	Server string
	// Name identifies this worker in leases and logs.
	Name string
	// Workers is the per-job engine pool size (<=0: one per CPU).
	Workers int
	// Oracles are trained safety-hijacker oracles for smart-mode jobs
	// (nil: the analytic oracle).
	Oracles map[core.Vector]core.Oracle
	// Poll is the minimum interval between lease requests when a server
	// answers without waiting (default 1s): it paces them against a
	// queue that is shutting down, which answers 204 at once. An empty
	// lease request that the server parked for its wait is followed by
	// the next at once.
	Poll time.Duration
	// Client is the HTTP client (default http.DefaultClient). A Timeout
	// on it must exceed the 10 s a lease request may wait on the server.
	Client *http.Client
	// Log receives the worker's structured progress and error records,
	// with worker/job/attempt attributes (default: discard).
	Log *slog.Logger

	// sleep is the interruptible wait, overridable in tests.
	sleep func(ctx context.Context, d time.Duration) bool
	// jitter is the backoff's randomness source, overridable in tests
	// (returns a uniform draw in [0,1)).
	jitter func() float64
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return obs.Discard()
}

// backoffBase and backoffMax bound the jittered exponential backoff
// applied after consecutive lease/heartbeat HTTP failures: the first
// retry waits ~backoffBase, doubling per failure up to backoffMax, and
// one success resets it. A restarting server is not hammered by a
// fleet of reconnecting workers — the jitter spreads their retries
// out.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// backoffDelay returns the wait before the n-th consecutive retry
// (n >= 1): backoffBase doubled per failure, capped at backoffMax,
// with the final wait jittered uniformly over [d/2, d) so retrying
// workers desynchronize.
func (w *Worker) backoffDelay(n int) time.Duration {
	d := backoffBase
	for i := 1; i < n && d < backoffMax; i++ {
		d *= 2
	}
	d = min(d, backoffMax)
	rnd := w.jitter
	if rnd == nil {
		rnd = func() float64 { return float64(time.Now().UnixNano()%1000) / 1000 }
	}
	return d/2 + time.Duration(rnd()*float64(d/2))
}

// leaseWait is how long a lease request asks the server to park on an
// empty queue (see LeaseRequest.WaitMillis). An expired wait costs one
// 204 and an immediate new request, so it only needs to be long next
// to a round trip.
const leaseWait = 10 * time.Second

// wait sleeps for d or until ctx is cancelled; false means cancelled.
func (w *Worker) wait(ctx context.Context, d time.Duration) bool {
	if w.sleep != nil {
		return w.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Run leases and executes jobs until ctx is cancelled. A job in
// flight at cancellation is aborted and handed back to the queue
// (fail with requeue), so another worker — or the server's own
// dispatcher — resumes it from the store's episodes. An empty lease
// that the server held for its wait is followed by the next at once;
// one answered sooner than Poll is followed by a sleep of Poll. Lease
// failures (an unreachable or erroring server) retry under jittered
// exponential backoff instead. Returns nil on a clean shutdown.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = time.Second
	}
	fails := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		asked := time.Now()
		ran, err := w.RunOne(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if err != nil {
			fails++
			d := w.backoffDelay(fails)
			w.log().Warn("lease attempt failed; backing off",
				"worker", w.Name, "attempt", fails, "retry_in", d, "err", err)
			if !w.wait(ctx, d) {
				return nil
			}
			continue
		}
		fails = 0
		if ran || time.Since(asked) >= poll {
			continue // drain the queue, or re-park, without sleeping
		}
		if !w.wait(ctx, poll) {
			return nil
		}
	}
}

// RunOne leases and executes at most one job. ran is false when the
// queue had nothing for us within the lease wait.
func (w *Worker) RunOne(ctx context.Context) (ran bool, err error) {
	var lease LeaseResponse
	status, err := w.postJSON(ctx, "/lease", "", LeaseRequest{Worker: w.Name, WaitMillis: leaseWait.Milliseconds()}, &lease)
	if err != nil {
		return false, fmt.Errorf("lease: %w", err)
	}
	if status == http.StatusNoContent {
		return false, nil
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("lease: server returned %d", status)
	}
	w.log().Info("leased job",
		"worker", w.Name, "job", lease.Job.ID, "campaign", lease.Job.Request.RecordName(),
		"runs", lease.Job.Request.Runs, "attempt", lease.Job.Attempt)
	w.execute(ctx, lease)
	return true, nil
}

// postBatch is how many completed episodes the worker buffers before
// posting them in one request: a paper-scale job is thousands of
// episodes, and one synchronous round-trip each would serialize the
// engine fold behind the network. A worker crash loses at most one
// unflushed batch — the requeued attempt simply re-runs those
// episodes.
const postBatch = 16

// errUploadDropped marks an episodes post that got no answer (a
// transport error, not a status): the worker hands the job back.
var errUploadDropped = errors.New("episodes upload dropped")

// run is the per-lease state shared by the engine's progress callback,
// the heartbeat loop and the episode sink.
type run struct {
	w     *Worker
	jobID int
	// h is the lease every request of the run acts under.
	h Holder
	// traceparent is the job's trace-context header value ("" for
	// untraced jobs), set on every request the run makes.
	traceparent string
	// cancel aborts the engine once the lease is lost.
	cancel context.CancelFunc
	lost   atomic.Bool
	done   atomic.Int64
	// buf holds completed episodes awaiting a flush. Append is called
	// only from the engine's single-goroutine result fold, so no lock.
	buf []results.EpisodeRecord
}

// Append implements results.Sink: completed episodes buffer and post
// to the server in batches; the server appends them to the served
// store before acknowledging. executeJob flushes the remainder before
// reporting completion.
func (r *run) Append(ep results.EpisodeRecord) error {
	r.buf = append(r.buf, ep)
	if len(r.buf) < postBatch {
		return nil
	}
	return r.flush()
}

// flush posts the buffered episodes. The post carries its own
// deadline — a black-holed server connection must not wedge the
// engine fold (and with it the whole worker).
func (r *run) flush() error {
	if len(r.buf) == 0 {
		return nil
	}
	batch := r.buf
	r.buf = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	status, err := r.w.postJSON(ctx, fmt.Sprintf("/runs/%d/episodes", r.jobID), r.traceparent,
		EpisodesRequest{Holder: r.h, Episodes: batch}, nil)
	first, last := batch[0].Index, batch[len(batch)-1].Index
	if err != nil {
		return fmt.Errorf("stream episodes %d..%d: %w: %w", first, last, errUploadDropped, err)
	}
	if status == http.StatusConflict || status == http.StatusNotFound {
		r.loseLease()
		return ErrLeaseLost
	}
	if status != http.StatusOK {
		return fmt.Errorf("stream episodes %d..%d: server returned %d", first, last, status)
	}
	return nil
}

func (r *run) loseLease() {
	if r.lost.CompareAndSwap(false, true) {
		r.w.log().Warn("lease lost; abandoning run", "worker", r.w.Name, "job", r.jobID)
		r.cancel()
	}
}

// heartbeat extends the lease every ttl/3 until stop closes, aborting
// the run if the server says the lease is gone (requeued after a
// missed beat, cancelled by a client, or taken by another worker).
// Failed beats retry under the worker's jittered exponential backoff —
// never sooner than the regular interval — so a down server isn't
// hammered while the lease may still survive.
func (r *run) heartbeat(ctx context.Context, ttl time.Duration, stop <-chan struct{}) {
	interval := ttl / 3
	if interval < 20*time.Millisecond {
		interval = 20 * time.Millisecond
	}
	fails := 0
	t := time.NewTimer(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hb := HeartbeatRequest{Holder: r.h, Done: int(r.done.Load())}
		status, err := r.w.postJSON(ctx, fmt.Sprintf("/runs/%d/heartbeat", r.jobID), r.traceparent, hb, nil)
		switch {
		case err != nil:
			fails++ // transient; the lease may still survive
			r.w.log().Warn("heartbeat failed",
				"worker", r.w.Name, "job", r.jobID, "attempt", fails, "err", err)
		case status == http.StatusConflict || status == http.StatusNotFound:
			r.loseLease()
			return
		default:
			fails = 0
		}
		next := interval
		if fails > 0 {
			if d := r.w.backoffDelay(fails); d > next {
				next = d
			}
		}
		t.Reset(next)
	}
}

// execute runs one leased job end to end and reports the outcome.
func (w *Worker) execute(ctx context.Context, lease LeaseResponse) {
	job := lease.Job
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &run{w: w, jobID: job.ID, h: Holder{Worker: w.Name, Attempt: job.Attempt}, cancel: cancel}

	// A traced job gets a per-job tracer whose spans (worker-job and one
	// engine-job per episode, which the episode annotates) forward to
	// the server's sink: the worker-job span nests under the attempt's
	// lease span (both sides derive its ID from the journaled TraceRef),
	// and engine-job spans nest under worker-job via the context.
	var jobSpan *trace.Span
	var fwd *spanForwarder
	if job.Trace != nil {
		r.traceparent = job.Trace.Traceparent(job.Attempt)
		fwd = &spanForwarder{r: r}
		tr := trace.New(w.Name, fwd)
		sc := trace.SpanContext{
			Tracer:  tr,
			TraceID: uint64(job.Trace.TraceID),
			SpanID:  execSpanID(job.Trace, job.Attempt),
		}
		jobSpan = tr.StartSpan(sc, "worker-job",
			trace.DeriveSpanID(uint64(job.Trace.TraceID), uint64(job.Attempt), trace.StreamWorkerJob))
		jobSpan.SetAttr("worker", w.Name)
		jobCtx = jobSpan.Context(jobCtx)
	}

	stop := make(chan struct{})
	defer close(stop)
	go r.heartbeat(jobCtx, time.Duration(lease.LeaseTTLMillis)*time.Millisecond, stop)

	err := w.executeJob(jobCtx, job, r)

	// Spans must land before the completion report: the server gates the
	// spans endpoint on the lease, which completion releases.
	jobSpan.Finish()
	if fwd != nil {
		fwd.flush()
	}

	// Reports go out on a fresh context: the worker's own ctx may be
	// the reason the job stopped.
	repCtx, repCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer repCancel()
	report := func(verb string, body any) {
		status, err := w.postJSON(repCtx, fmt.Sprintf("/runs/%d/%s", job.ID, verb), r.traceparent, body, nil)
		switch {
		case err != nil:
			// Unreachable server: the lease will expire and the job
			// requeue, so the outcome is not lost, just delayed.
			w.log().Warn("report failed",
				"worker", w.Name, "job", job.ID, "verb", verb, "err", err)
		case status != http.StatusOK:
			w.log().Warn("report rejected",
				"worker", w.Name, "job", job.ID, "verb", verb, "status", status)
		}
	}
	switch {
	case r.lost.Load():
		// The server already requeued or cancelled the job; silence is
		// the protocol.
	case err == nil:
		report("complete", CompleteRequest{Holder: r.h})
		w.log().Info("job done", "worker", w.Name, "job", job.ID, "runs", job.Request.Runs)
	case ctx.Err() != nil || errors.Is(err, errUploadDropped):
		// Worker shutdown, or episodes the server may not have stored:
		// hand the job back now instead of when the lease expires; the
		// next attempt re-runs only what the server did not store.
		report("fail", FailRequest{Holder: r.h, Error: err.Error(), Requeue: true})
	default:
		report("fail", FailRequest{Holder: r.h, Error: err.Error()})
		w.log().Warn("job failed", "worker", w.Name, "job", job.ID, "err", err)
	}
}

// spanForwarderBatch is how many completed spans the forwarder buffers
// before posting them to the server in one request.
const spanForwarderBatch = 128

// spanForwarder is a trace.Sink that ships the worker's completed
// spans to the server's /runs/{id}/spans endpoint in batches. Every
// engine worker finishes spans into it, so the buffer is swapped under
// mu and posted outside it. Spans are observability, not results: a
// failed post is logged and the batch dropped, never retried — the
// job's outcome must not hinge on span delivery.
type spanForwarder struct {
	r   *run
	mu  sync.Mutex
	buf []trace.SpanData
}

func (f *spanForwarder) Emit(d *trace.SpanData) {
	f.mu.Lock()
	f.buf = append(f.buf, d.Clone())
	full := len(f.buf) >= spanForwarderBatch
	f.mu.Unlock()
	if full {
		f.flush()
	}
}

func (f *spanForwarder) flush() {
	f.mu.Lock()
	batch := f.buf
	f.buf = nil
	f.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	status, err := f.r.w.postJSON(ctx, fmt.Sprintf("/runs/%d/spans", f.r.jobID), f.r.traceparent,
		SpansRequest{Holder: f.r.h, Spans: batch}, nil)
	switch {
	case err != nil:
		f.r.w.log().Warn("span forward failed",
			"worker", f.r.w.Name, "job", f.r.jobID, "spans", len(batch), "err", err)
	case status != http.StatusOK:
		f.r.w.log().Warn("span forward rejected",
			"worker", f.r.w.Name, "job", f.r.jobID, "spans", len(batch), "status", status)
	}
}

// executeJob runs the job on the one runner (Job.run), streaming fresh
// episodes to the server; a resuming attempt reads the served store's
// episodes of the job's record name.
func (w *Worker) executeJob(ctx context.Context, job Job, r *run) error {
	err := job.run(ctx, w.Workers, w.Oracles, func(done, _ int) { r.done.Store(int64(done)) }, r,
		func(name string) ([]results.EpisodeRecord, error) { return w.fetchEpisodes(ctx, name) })
	// Episodes still buffered must land before the outcome is reported
	// (a completed job's records are durable, a failed one's resumable).
	if ferr := r.flush(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// fetchEpisodes pulls a campaign's already-persisted episodes from
// the server (none is not an error). The record name is user-chosen,
// so it is path-escaped — a name with "/" must stay one URL segment
// or the lookup 404s and the resume silently restarts from scratch.
func (w *Worker) fetchEpisodes(ctx context.Context, name string) ([]results.EpisodeRecord, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Server+"/campaigns/"+url.PathEscape(name)+"/episodes", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(WorkerHeader, w.Name)
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server returned %d", resp.StatusCode)
	}
	var eps []results.EpisodeRecord
	if err := json.NewDecoder(resp.Body).Decode(&eps); err != nil {
		return nil, err
	}
	return eps, nil
}

// postJSON posts body to path and decodes the response into out (when
// non-nil and the status is 200). Every request carries the worker's
// identity header; traceparent, when non-empty, carries the job's
// trace context. The status code is always returned so callers can
// treat 204/409 as protocol, not errors.
func (w *Worker) postJSON(ctx context.Context, path, traceparent string, body, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Server+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(WorkerHeader, w.Name)
	if traceparent != "" {
		req.Header.Set(TraceparentHeader, traceparent)
	}
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
		return resp.StatusCode, nil
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
