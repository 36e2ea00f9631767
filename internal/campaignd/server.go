// Package campaignd is the HTTP campaign service: it serves a
// results.Store (campaign list, per-campaign records and episodes,
// Table II summaries, store-vs-store diffs) and queues new campaign
// runs on a durable run queue (internal/runq) — jobs survive
// restarts, execute under a bounded local concurrency, can be leased
// by remote robotack-worker processes, stream their episodes into the
// same store, and report live progress over Server-Sent Events. It is
// the many-clients face of the results API — robotack-campaign writes
// a store on one machine, robotack-serve makes it queryable, diffable
// and extendable for everyone else.
package campaignd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
	"github.com/robotack/robotack/internal/segstore"
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
//	GET  /diff?other=path              diff the store against another store
//	                                   (JSONL file or segstore directory)
//	GET  /diff?a=name&b=name           diff two campaigns within the store
//
// Run-queue endpoints:
//
//	POST   /runs                       queue a campaign (JSON body: RunRequest)
//	GET    /runs                       all queued runs' statuses
//	GET    /runs/{id}                  one run's status and progress
//	GET    /runs/{id}/events           live progress over Server-Sent Events
//	DELETE /runs/{id}                  cancel a queued or running job
//
// Remote-worker protocol (see runq's protocol types):
//
//	POST /lease                        lease the next queued job
//	POST /runs/{id}/heartbeat          keep the lease alive, report progress
//	POST /runs/{id}/episodes           stream episode records into the store
//	POST /runs/{id}/spans              forward a traced job's worker spans
//	POST /runs/{id}/complete           deliver the final aggregate
//	POST /runs/{id}/fail               fail or hand back the job
type Server struct {
	store    results.Store
	workers  int
	oracles  map[core.Vector]core.Oracle
	queue    *runq.Queue
	ownQueue bool
	exec     runq.Executor
	tracer   *trace.Tracer
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

// WithOracles supplies trained safety-hijacker oracles to locally
// executed runs (default: the analytic oracle).
func WithOracles(o map[core.Vector]core.Oracle) Option {
	return func(s *Server) { s.oracles = o }
}

// WithQueue serves an externally owned queue (e.g. a durable one
// opened on a -queue-dir). The caller keeps responsibility for
// shutting it down; without this option the server creates and owns a
// memory-only queue.
func WithQueue(q *runq.Queue) Option {
	return func(s *Server) { s.queue = q }
}

// WithExecutor replaces the local executor (tests use stubs; the
// default runs jobs on per-job engines into the served store).
func WithExecutor(exec runq.Executor) Option {
	return func(s *Server) { s.exec = exec }
}

// WithTracer enables span tracing: a server-created queue gets the
// tracer (submitted runs carry deterministic trace IDs and emit
// lifecycle spans), and POST /runs/{id}/spans ingests workers'
// forwarded spans into the same sink. A queue supplied via WithQueue
// keeps its own tracer configuration (runq.WithTracer) — pass the same
// tracer to both. Nil is a no-op.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) { s.tracer = t }
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
		q, err := runq.Open("", runq.WithTracer(s.tracer)) // memory-only queues cannot fail to open
		if err != nil {
			panic(err)
		}
		s.queue = q
		s.ownQueue = true
	}
	if s.exec == nil {
		s.exec = runq.LocalExecutor{Store: s.store, Oracles: s.oracles, Workers: s.workers}
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
	s.handle("POST /runs/{id}/heartbeat", s.handleHeartbeat)
	s.handle("POST /runs/{id}/episodes", s.handleWorkerEpisodes)
	s.handle("POST /runs/{id}/spans", s.handleWorkerSpans)
	s.handle("POST /runs/{id}/complete", s.handleComplete)
	s.handle("POST /runs/{id}/fail", s.handleFail)
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
		if !obs.Enabled() {
			fn(w, r)
			return
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

// aggregate returns the stored aggregate for name, recomputing it from
// episode records when the campaign was interrupted before its
// aggregate landed.
func (s *Server) aggregate(name string) (*results.CampaignRecord, error) {
	return results.AggregateFor(s.store, name)
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
	rec, err := s.aggregate(name)
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
	rec, err := s.aggregate(name)
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
	robo, base := splitByMode(recs)
	fmt.Fprintf(w, "\n%s", experiment.FormatSummary(experiment.Summarize(robo), experiment.Summarize(base)))
}

// splitByMode separates the smart campaigns from the random baseline
// for the headline summary, matching robotack-campaign's headline:
// golden (mode 0) and noSH campaigns belong to neither side.
func splitByMode(recs []results.CampaignRecord) (robo, base []results.CampaignRecord) {
	for _, r := range recs {
		switch r.Mode {
		case core.ModeSmart:
			robo = append(robo, r)
		case core.ModeRandom:
			base = append(base, r)
		}
	}
	return robo, base
}

// handleStores reports the served store's size and format — the cheap
// "how big is this thing / is it still growing" probe behind
// `curl /stores`, an array so a future multi-store server keeps the
// shape. Backends without StatsProvider (custom test stores) still get
// an entry: campaign count from the Store interface, flagged Estimated
// because episode and byte totals are unknowable through it.
func (s *Server) handleStores(w http.ResponseWriter, r *http.Request) {
	st, err := storeStats(s.store)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, []results.StoreStats{st})
}

func storeStats(store results.Store) (results.StoreStats, error) {
	if sp, ok := store.(results.StatsProvider); ok {
		return sp.Stats()
	}
	recs, err := store.Campaigns()
	if err != nil {
		return results.StoreStats{}, err
	}
	st := results.StoreStats{Format: "unknown", Campaigns: len(recs), Estimated: true}
	if lister, ok := store.(interface{ EpisodeCampaigns() []string }); ok {
		for _, name := range lister.EpisodeCampaigns() {
			eps, err := store.Episodes(name)
			if err != nil {
				return results.StoreStats{}, err
			}
			st.Episodes += len(eps)
		}
	}
	return st, nil
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	switch {
	case q.Get("other") != "":
		other, err := segstore.LoadAny(q.Get("other"))
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		diffs, err := results.Diff(s.store, other)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, diffs)
	case q.Get("a") != "" && q.Get("b") != "":
		ra, err := s.aggregate(q.Get("a"))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rb, err := s.aggregate(q.Get("b"))
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
		writeError(w, http.StatusBadRequest, "diff needs ?other=store (JSONL file or segstore dir) or ?a=campaign&b=campaign")
	}
}

// RunRequest is the POST /runs body: exactly one of a registered
// scenario name, an inline declarative spec, or procedural-generator
// parameters, plus mode/runs/seed and — for smart-mode runs — an
// optional inline attack-policy artifact ("policy": the JSON
// robotack-search writes). Queued and leased workers evaluate the
// policy instead of the built-in fixed trigger.
type RunRequest = runq.Request

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
		Total:    j.Total,
		Done:     j.Done,
		State:    string(j.State),
		Attempt:  j.Attempt,
		Worker:   j.Worker,
		Error:    j.Error,
	}
}

func (s *Server) handleLaunch(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
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
		"mode", strings.ToLower(job.Request.Mode), "runs", job.Total)
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
// the terminal event.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	job, ch, unsub, err := s.queue.Subscribe(id)
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

	// The snapshot was taken atomically with the subscription, so the
	// client always sees the current state first and no event between
	// subscribe and snapshot is lost. EventOf re-reads the job, which
	// may already have advanced past the snapshot — that is fine, the
	// subscription channel replays anything newer — but it must not be
	// missing, so fall back to the snapshot on a race with deletion.
	ev, ok := s.queue.EventOf(job.ID)
	if !ok {
		ev = runq.Event{ID: job.ID, State: job.State, Done: job.Done, Total: job.Total, Error: job.Error}
	}
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

// workerError maps queue errors to protocol statuses: 404 for unknown
// jobs, 409 for lost leases (the worker's signal to abandon the run).
func workerError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, runq.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, runq.ErrLeaseLost):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func decodeBody[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return v, false
	}
	return v, true
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
	job, ok := s.queue.Lease(req.Worker)
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

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	req, ok := decodeBody[runq.HeartbeatRequest](w, r)
	if !ok {
		return
	}
	if err := s.queue.Heartbeat(id, req.Worker, req.Done, req.Total); err != nil {
		workerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleWorkerEpisodes appends a worker's completed episodes to the
// served store — through the same Sink interface local runs use, so
// an episode acknowledged here is as durable as a local one.
func (s *Server) handleWorkerEpisodes(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	req, ok := decodeBody[runq.EpisodesRequest](w, r)
	if !ok {
		return
	}
	if err := s.queue.CheckLease(id, req.Worker); err != nil {
		workerError(w, err)
		return
	}
	// The lease gates who may write; this gates what they write — a
	// worker can only append into its own job's campaign and index
	// range, never clobber another campaign's records.
	job, ok := s.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %d", id)
		return
	}
	name := job.Request.RecordName()
	for _, ep := range req.Episodes {
		if ep.Campaign != name {
			writeError(w, http.StatusBadRequest, "episode %d is for campaign %q, job %d writes %q", ep.Index, ep.Campaign, id, name)
			return
		}
		if ep.Index < 0 || ep.Index >= job.Total {
			writeError(w, http.StatusBadRequest, "episode index %d out of range [0,%d)", ep.Index, job.Total)
			return
		}
	}
	for _, ep := range req.Episodes {
		if err := s.store.Append(ep); err != nil {
			writeError(w, http.StatusInternalServerError, "append episode %d: %v", ep.Index, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleWorkerSpans ingests a traced job's forwarded worker spans into
// the server's trace sink, so one sink holds the whole cross-process
// trace. The lease gates who may post; the trace-ID check gates what —
// a worker's spans can only land on its own job's trace. Spans are
// observability, not results: with tracing off server-side they are
// accepted and dropped.
func (s *Server) handleWorkerSpans(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	req, ok := decodeBody[runq.SpansRequest](w, r)
	if !ok {
		return
	}
	if err := s.queue.CheckLease(id, req.Worker); err != nil {
		workerError(w, err)
		return
	}
	job, ok := s.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %d", id)
		return
	}
	if tr := s.queue.Tracer(); tr != nil && job.Trace != nil {
		for i := range req.Spans {
			sp := &req.Spans[i]
			if sp.TraceID != job.Trace.TraceID {
				writeError(w, http.StatusBadRequest,
					"span %s is for trace %s, job %d traces %s", sp.SpanID, sp.TraceID, id, job.Trace.TraceID)
				return
			}
			tr.Emit(sp) // Service stays the worker's name
		}
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	req, ok := decodeBody[runq.CompleteRequest](w, r)
	if !ok {
		return
	}
	if err := s.queue.CheckLease(id, req.Worker); err != nil {
		workerError(w, err)
		return
	}
	if req.Campaign != nil {
		if err := s.store.PutCampaign(*req.Campaign); err != nil {
			writeError(w, http.StatusInternalServerError, "store aggregate: %v", err)
			return
		}
	}
	if err := s.queue.Complete(id, req.Worker); err != nil {
		workerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	id, ok := runID(w, r)
	if !ok {
		return
	}
	req, ok := decodeBody[runq.FailRequest](w, r)
	if !ok {
		return
	}
	if err := s.queue.Fail(id, req.Worker, req.Error, req.Requeue); err != nil {
		workerError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
