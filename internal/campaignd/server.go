// Package campaignd is the HTTP campaign service: it serves a
// results.Store (campaign list, per-campaign records and episodes,
// Table II summaries, campaign-vs-campaign diffs) and queues new
// campaign runs on a durable run queue (internal/runq) — jobs survive
// restarts, execute under a bounded local concurrency, can be leased
// by remote robotack-worker processes, stream their episodes into the
// same store, and report live progress over Server-Sent Events. The
// store is the one source of a served run's results: a remote job's
// aggregate is the server's fold of the job's own episodes it stored
// (runq.Job.Fold). Every worker route after the lease goes through one
// gate (leased), which parses the run id, decodes the body, checks the
// lease and maps the route's error to its status. It is
// the many-clients face of the results API — robotack-campaign writes
// a store on one machine, robotack-serve makes it queryable, diffable
// and extendable for everyone else.
package campaignd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
)

// httpSeconds returns the request-latency histogram series for one
// registered route. The label is the mux pattern, so cardinality is
// fixed by the API surface, not by client-chosen paths.
func httpSeconds(pattern string) *obs.Histogram {
	return obs.NewHistogram("robotack_http_request_seconds",
		"campaignd HTTP request latency by route.",
		obs.ExpBuckets(1e-4, 4, 10), obs.Label{Key: "route", Value: pattern})
}

// Server is the HTTP campaign service. Create one with New; it
// implements http.Handler.
//
// Query endpoints:
//
//	GET  /campaigns                    stored campaign aggregates
//	GET  /campaigns/{name}             one aggregate (recomputed from
//	                                   episodes when only those exist)
//	GET  /campaigns/{name}/episodes    the campaign's episode records
//	GET  /campaigns/{name}/summary     Table II text for one campaign
//	GET  /summary                      Table II text for the whole store
//	GET  /stores                       size and format stats for the served store
//	GET  /diff?a=name&b=name           diff two campaigns within the store
//
// Diffing two stores is robotack-store diff's job: the service never
// opens a path a client names.
//
// Run-queue endpoints:
//
//	POST   /runs                       queue a campaign (JSON body: runq.Request)
//	GET    /runs                       all queued runs' statuses
//	GET    /runs/{id}                  one run's status and progress
//	GET    /runs/{id}/events           live progress over Server-Sent Events
//	DELETE /runs/{id}                  cancel a queued or running job
//
// Remote-worker protocol (see runq's protocol types). Every request
// after the lease names the worker and the attempt it holds; one that
// does not hold the job's current lease answers 409, and one with an
// episode the job does not own (runq.Job.Own) answers 400:
//
//	POST /lease                        lease the next queued job, waiting up
//	                                   to wait_ms for one on an empty queue
//	POST /runs/{id}/heartbeat          keep the lease alive, report progress
//	POST /runs/{id}/episodes           stream episode records into the store
//	POST /runs/{id}/spans              forward a traced job's worker spans
//	POST /runs/{id}/complete           store the fold of the job's own stored
//	                                   episodes (409 while one is missing)
//	POST /runs/{id}/fail               fail or hand back the job
type Server struct {
	store    results.Store
	workers  int
	queue    *runq.Queue
	ownQueue bool
	exec     runq.Executor
	log      *slog.Logger
	mux      *http.ServeMux
}

// Option configures a Server.
type Option func(*Server)

// WithWorkers sets the engine worker-pool size for locally executed
// runs.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n >= 1 {
			s.workers = n
		}
	}
}

// WithQueue serves an externally owned queue (e.g. a durable one
// opened on a -queue-dir, or a traced one: POST /runs/{id}/spans emits
// workers' forwarded spans through the queue's runq.WithTracer). The
// caller keeps responsibility for shutting it down; without this
// option the server creates and owns an untraced memory-only queue.
func WithQueue(q *runq.Queue) Option {
	return func(s *Server) { s.queue = q }
}

// WithExecutor replaces the local executor, which by default runs jobs
// on per-job engines into the served store. Test seam: the campaignd
// queue tests run jobs on stub executors through it.
func WithExecutor(exec runq.Executor) Option {
	return func(s *Server) { s.exec = exec }
}

// WithLogger sets the server's structured logger for request-level
// errors (default: discard). The queue's logger is configured
// separately on the queue itself.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) {
		if l != nil {
			s.log = l
		}
	}
}

// New creates the campaign service over store and starts its queue's
// dispatcher.
func New(store results.Store, opts ...Option) *Server {
	s := &Server{
		store:   store,
		workers: engine.DefaultWorkers(),
		log:     obs.Discard(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.queue == nil {
		q, err := runq.Open("") // memory-only queues cannot fail to open
		if err != nil {
			panic(err)
		}
		s.queue = q
		s.ownQueue = true
	}
	if s.exec == nil {
		s.exec = runq.LocalExecutor{Store: s.store, Workers: s.workers}
	}
	s.queue.Start(s.exec)

	s.mux = http.NewServeMux()
	s.handle("GET /campaigns", s.handleCampaigns)
	s.handle("GET /campaigns/{name}", s.handleCampaign)
	s.handle("GET /campaigns/{name}/episodes", s.handleEpisodes)
	s.handle("GET /campaigns/{name}/summary", s.handleCampaignSummary)
	s.handle("GET /summary", s.handleSummary)
	s.handle("GET /stores", s.handleStores)
	s.handle("GET /diff", s.handleDiff)
	s.handle("POST /runs", s.handleLaunch)
	s.handle("GET /runs", s.handleRuns)
	s.handle("GET /runs/{id}", s.handleRun)
	s.handle("GET /runs/{id}/events", s.handleRunEvents)
	s.handle("DELETE /runs/{id}", s.handleRunCancel)
	s.handle("POST /lease", s.handleLease)
	leased(s, "POST /runs/{id}/heartbeat", func(job runq.Job, req runq.HeartbeatRequest) error {
		return s.queue.Heartbeat(job.ID, req.Holder, req.Done)
	})
	leased(s, "POST /runs/{id}/episodes", s.workerEpisodes)
	leased(s, "POST /runs/{id}/spans", s.workerSpans)
	leased(s, "POST /runs/{id}/complete", s.complete)
	leased(s, "POST /runs/{id}/fail", func(job runq.Job, req runq.FailRequest) error {
		return s.queue.Fail(job.ID, req.Holder, req.Error, req.Requeue)
	})
	return s
}

// handle registers a route wrapped with per-route latency recording
// and lease-protocol header logging. The histogram series is created
// once at registration; the wrapper itself only reads the clock and
// bumps atomics. SSE streams are the one caveat — their "latency" is
// the stream's lifetime — which is still useful (it counts open event
// streams' durations). Requests that identify a worker via
// X-Robotack-Worker log it (plus any trace context) at Debug, so a
// fleet's traffic is attributable per worker without body parsing.
func (s *Server) handle(pattern string, fn http.HandlerFunc) {
	h := httpSeconds(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if wk := r.Header.Get(runq.WorkerHeader); wk != "" {
			s.log.Debug("worker request", "route", pattern, "worker", wk,
				"traceparent", r.Header.Get(runq.TraceparentHeader))
		}
		start := time.Now()
		fn(w, r)
		h.Observe(time.Since(start).Seconds())
	})
}

// Close shuts down a server-owned queue (no-op when the queue came
// from WithQueue — its owner shuts it down).
func (s *Server) Close() error {
	if !s.ownQueue {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.queue.Shutdown(ctx)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	recs, err := s.store.Campaigns()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, recs)
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, err := results.AggregateFor(s.store, name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if rec == nil {
		writeError(w, http.StatusNotFound, "no campaign %q in store", name)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleEpisodes(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	eps, err := s.store.Episodes(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if len(eps) == 0 {
		writeError(w, http.StatusNotFound, "no episodes for campaign %q", name)
		return
	}
	writeJSON(w, http.StatusOK, eps)
}

func (s *Server) handleCampaignSummary(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, err := results.AggregateFor(s.store, name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if rec == nil {
		writeError(w, http.StatusNotFound, "no campaign %q in store", name)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, experiment.FormatTableII([]results.CampaignRecord{*rec}))
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	recs, err := s.store.Campaigns()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, experiment.FormatTableII(recs))
	robo, base := experiment.SplitByMode(recs)
	fmt.Fprintf(w, "\n%s", experiment.FormatSummary(experiment.Summarize(robo), experiment.Summarize(base)))
}

// handleStores reports the served store's size and format — the cheap
// "how big is this thing / is it still growing" probe behind
// `curl /stores`, an array so a future multi-store server keeps the
// shape.
func (s *Server) handleStores(w http.ResponseWriter, r *http.Request) {
	st, err := s.store.Stats()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, []results.StoreStats{st})
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch {
	case q.Get("a") != "" && q.Get("b") != "":
		ra, err := results.AggregateFor(s.store, q.Get("a"))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rb, err := results.AggregateFor(s.store, q.Get("b"))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if ra == nil || rb == nil {
			writeError(w, http.StatusNotFound, "both campaigns must exist (a=%v b=%v)", ra != nil, rb != nil)
			return
		}
		writeJSON(w, http.StatusOK, results.DiffRecords(q.Get("a")+" vs "+q.Get("b"), ra, rb))
	default:
		writeError(w, http.StatusBadRequest, "diff needs ?a=campaign&b=campaign")
	}
}

// RunStatus is the progress of one queued run.
type RunStatus struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	Mode     string `json:"mode"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	// State is queued | running | done | failed | cancelled.
	State   string `json:"state"`
	Attempt int    `json:"attempt,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Error   string `json:"error,omitempty"`
}

func statusOf(j runq.Job) RunStatus {
	return RunStatus{
		ID:       j.ID,
		Name:     j.Request.RecordName(),
		Scenario: j.Request.Label(),
		Mode:     strings.ToLower(j.Request.Mode),
		Total:    j.Request.Runs,
		Done:     j.Done,
		State:    string(j.State),
		Attempt:  j.Attempt,
		Worker:   j.Worker,
		Error:    j.Error,
	}
}

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[runq.Request](w, r)
	if !ok {
		return
	}
	// Validate before Submit so a client fault reads as 400 while a
	// server fault past validation (e.g. a full disk under the journal)
	// reads as 500/503.
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job, err := s.queue.Submit(req)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, runq.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		s.log.Error("run submission failed", "err", err)
		writeError(w, status, "%v", err)
		return
	}
	s.log.Info("run accepted", "job", job.ID, "campaign", job.Request.RecordName(),
		"mode", strings.ToLower(job.Request.Mode), "runs", job.Request.Runs)
	writeJSON(w, http.StatusAccepted, statusOf(job))
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.Jobs()
	out := make([]RunStatus, len(jobs))
	for i, j := range jobs {
		out[i] = statusOf(j)
	}
	writeJSON(w, http.StatusOK, out)
}

// runID parses the {id} path segment, writing the error response on
// failure. strconv.Atoi rejects trailing garbage — "12abc" must not
// alias run 12, least of all on DELETE.
func runID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad run id %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	job, ok := s.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %d", id)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(job))
}

func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	if err := s.queue.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, "no run %d", id)
		return
	}
	job, _ := s.queue.Get(id)
	writeJSON(w, http.StatusOK, statusOf(job))
}

// handleRunEvents streams a run's progress as Server-Sent Events: a
// "progress" event per state change or episode completion, then one
// terminal "done", "failed" or "cancelled" event, after which the
// stream closes. A subscriber to an already-terminal run gets just
// the terminal event. A run that already has runq.MaxSubscribersPerRun
// streams answers 429.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	ev, ch, unsub, err := s.queue.Subscribe(id)
	if errors.Is(err, runq.ErrTooManySubscribers) {
		writeError(w, http.StatusTooManyRequests, "run %d already has %d event streams", id, runq.MaxSubscribersPerRun)
		return
	}
	if err != nil {
		writeError(w, http.StatusNotFound, "no run %d", id)
		return
	}
	defer unsub()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// The opening event was taken under the subscription's lock, so the
	// client sees the current state first and no later event is lost.
	writeSSE(w, ev)
	fl.Flush()
	if ev.State.Terminal() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			writeSSE(w, ev)
			fl.Flush()
			if ev.State.Terminal() {
				return
			}
		}
	}
}

// writeSSE writes one event. Non-terminal updates are named
// "progress"; the terminal event is named after the final state, so a
// client can wait with nothing but `grep -m1 'event: done'`.
func writeSSE(w http.ResponseWriter, ev runq.Event) {
	name := "progress"
	if ev.State.Terminal() {
		name = string(ev.State)
	}
	raw, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, raw)
}

// statusError is a lease-gated route's refusal, with the status it
// answers.
type statusError struct {
	status int
	err    error
}

func (e statusError) Error() string { return e.err.Error() }

// leased registers a worker route after the lease; it is the one lease
// gate. It parses {id}, decodes the body of at most maxBodyBytes and
// checks that the request's holder holds the job's current lease, then
// runs fn on the job. An error answers its statusError status, 404 for
// runq.ErrNotFound, 409 for runq.ErrLeaseLost (the worker's signal to
// abandon the run) and 500 otherwise; success answers {"ok":true}.
func leased[T interface{ Lease() runq.Holder }](s *Server, pattern string, fn func(job runq.Job, req T) error) {
	s.handle(pattern, func(w http.ResponseWriter, r *http.Request) {
		id, ok := runID(w, r)
		if !ok {
			return
		}
		req, ok := decodeBody[T](w, r)
		if !ok {
			return
		}
		job, err := s.queue.CheckLease(id, req.Lease())
		if err == nil {
			err = fn(job, req)
		}
		var se statusError
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
		case errors.As(err, &se):
			writeError(w, se.status, "%v", err)
		case errors.Is(err, runq.ErrNotFound):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, runq.ErrLeaseLost):
			writeError(w, http.StatusConflict, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
	})
}

// maxBodyBytes limits every request body: a run request, a lease,
// heartbeat, completion or fail report, or one worker batch (16
// episodes or 128 spans) is kilobytes.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body of at most maxBodyBytes,
// answering 413 beyond the limit and 400 for malformed JSON or for
// anything but whitespace after the one value.
func decodeBody[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(&v)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == io.EOF {
			return v, true
		} else if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad request body: %v", err)
	return v, false
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[runq.LeaseRequest](w, r)
	if !ok {
		return
	}
	if req.Worker == "" || req.Worker == runq.LocalWorker {
		writeError(w, http.StatusBadRequest, "worker name required (and %q is reserved)", runq.LocalWorker)
		return
	}
	// A parked request waits on its own context, so a worker that hangs
	// up stops waiting; Shutdown releases the rest.
	job, ok := s.queue.Lease(r.Context(), req.Worker, req.Wait())
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if job.Trace != nil {
		w.Header().Set(runq.TraceparentHeader, job.Trace.Traceparent(job.Attempt))
	}
	writeJSON(w, http.StatusOK, runq.LeaseResponse{
		Job:            job,
		LeaseTTLMillis: s.queue.LeaseTTL().Milliseconds(),
	})
}

// workerEpisodes appends a worker's completed episodes to the served
// store — through the same Sink interface local runs use, so an
// episode acknowledged here is as durable as a local one. The lease
// gates who may write; runq.Job.Own gates what they write. A batch
// with one episode the job does not own is refused whole, before
// anything is appended, so a foreign episode can never block the job's
// completion or its resume.
func (s *Server) workerEpisodes(job runq.Job, req runq.EpisodesRequest) error {
	for _, ep := range req.Episodes {
		if err := job.Own(ep); err != nil {
			return statusError{http.StatusBadRequest, err}
		}
	}
	for _, ep := range req.Episodes {
		if err := s.store.Append(ep); err != nil {
			return fmt.Errorf("append episode %d: %w", ep.Index, err)
		}
	}
	return nil
}

// workerSpans ingests a traced job's forwarded worker spans into the
// server's trace sink, so one sink holds the whole cross-process trace.
// The lease gates who may post; the checks gate what — a worker's spans
// can only land on its own job's trace, and only within
// trace.CheckBounds, beyond which one record would make the sink's
// directory unreadable. A batch with one bad span is refused whole.
// Spans are observability, not results: with tracing off server-side
// they are accepted and dropped.
func (s *Server) workerSpans(job runq.Job, req runq.SpansRequest) error {
	tr := s.queue.Tracer()
	if tr == nil || job.Trace == nil {
		return nil
	}
	for i := range req.Spans {
		sp := &req.Spans[i]
		if sp.TraceID != job.Trace.TraceID {
			return statusError{http.StatusBadRequest,
				fmt.Errorf("span %s is for trace %s, job %d traces %s", sp.SpanID, sp.TraceID, job.ID, job.Trace.TraceID)}
		}
		if err := trace.CheckBounds(uint64(len(sp.Stages)), uint64(len(sp.Attrs))); err != nil {
			return statusError{http.StatusBadRequest, fmt.Errorf("span %s: %w", sp.SpanID, err)}
		}
	}
	for i := range req.Spans {
		tr.Emit(&req.Spans[i]) // Service stays the worker's name
	}
	return nil
}

// complete stores the fold of the job's stored episodes
// (runq.Job.Fold) as its aggregate and completes it. While an index
// holds no episode the job owns it answers 409 and the job stays
// running, so lease expiry and a resumed attempt, which re-runs every
// episode the job does not own, heal the run.
func (s *Server) complete(job runq.Job, req runq.CompleteRequest) error {
	eps, err := s.store.Episodes(job.Request.RecordName())
	if err != nil {
		return fmt.Errorf("read episodes: %w", err)
	}
	agg, err := job.Fold(eps)
	if err != nil {
		return statusError{http.StatusConflict, err}
	}
	if err := s.store.PutCampaign(agg); err != nil {
		return fmt.Errorf("store aggregate: %w", err)
	}
	return s.queue.Complete(job.ID, req.Holder)
}
