package runq

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
)

// Errors the queue's operations return; the HTTP layer maps them to
// status codes (404, 409, 429).
var (
	// ErrNotFound means no job has the given id.
	ErrNotFound = errors.New("runq: no such job")
	// ErrLeaseLost means the caller no longer holds the job: it was
	// cancelled, requeued after a missed heartbeat, or leased again, to
	// anyone under a later attempt. The worker must abandon the run.
	ErrLeaseLost = errors.New("runq: lease lost")
	// ErrClosed means the queue is shutting down.
	ErrClosed = errors.New("runq: queue closed")
	// ErrTooManySubscribers means the job already has
	// MaxSubscribersPerRun event subscribers.
	ErrTooManySubscribers = errors.New("runq: too many event subscribers for this job")
)

// MaxSubscribersPerRun bounds one job's event subscribers. Each holds a
// 64-event buffer, and every event of the job is sent to all of them
// under the queue lock, so without a bound the clients watching one run
// could grow the server's memory and every queue operation's lock hold
// without limit. A run has one waiting client in normal use; 32 leaves
// room for dashboards and retries.
const MaxSubscribersPerRun = 32

// Executor runs one leased job to completion. Implementations must
// return promptly with ctx.Err() once ctx is cancelled, and must call
// progress as episodes complete. LocalExecutor is the standard one.
type Executor interface {
	Execute(ctx context.Context, job Job, progress func(done, total int)) error
}

// Queue is the durable run queue: submitted jobs persist to the
// journal, a dispatcher executes at most a bounded number locally,
// and remote workers lease the rest over the HTTP protocol. All
// methods are safe for concurrent use.
type Queue struct {
	maxConcurrent int
	leaseTTL      time.Duration
	log           *slog.Logger
	tracer        *trace.Tracer

	compactThreshold int64

	mu      sync.Mutex
	jobs    map[int]*Job
	pending []int // queued job ids, FIFO; requeues go to the front
	nextID  int
	journal *results.Log
	lockf   *os.File // held for the queue's lifetime (dir exclusivity)
	subs    map[int]map[chan Event]bool
	cancels map[int]context.CancelFunc // local in-flight jobs
	parked  []*parkedLease             // lease requests waiting for a job, oldest first
	closed  bool
	started bool

	exec   Executor
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Option configures a Queue.
type Option func(*Queue)

// WithMaxConcurrent bounds how many jobs the queue's own dispatcher
// executes at once (default 1). Zero disables local execution
// entirely — jobs then run only on remote workers.
func WithMaxConcurrent(n int) Option {
	return func(q *Queue) {
		if n >= 0 {
			q.maxConcurrent = n
		}
	}
}

// WithLeaseTTL sets how long a remote worker's lease lives without a
// heartbeat before the job is requeued (default 30s).
func WithLeaseTTL(d time.Duration) Option {
	return func(q *Queue) {
		if d > 0 {
			q.leaseTTL = d
		}
	}
}

// DefaultCompactionThreshold is the journal size (bytes) above which
// Open rewrites queue.jsonl to its last-wins state. Long-lived queues
// append one snapshot line per state transition, so the journal grows
// without bound while the live state stays small; startup compaction
// caps replay time and disk use.
const DefaultCompactionThreshold = 1 << 20

// WithCompactionThreshold overrides the startup-compaction trigger
// size in bytes. Zero or negative disables compaction. Test seam:
// TestJournalCompactionReplayEquivalent compacts a small journal with
// it.
func WithCompactionThreshold(n int64) Option {
	return func(q *Queue) { q.compactThreshold = n }
}

// WithLogger sets the queue's structured logger: lease churn, journal
// failures and job lifecycle transitions are logged with job-id,
// worker and attempt attributes. Default: discard.
func WithLogger(l *slog.Logger) Option {
	return func(q *Queue) {
		if l != nil {
			q.log = l
		}
	}
}

// Open creates a queue journaled under dir, replaying any existing
// journal: terminal jobs stay terminal, and jobs that were queued or
// running when the previous process died are requeued — their next
// execution resumes from the results store's episodes, bit-identically.
// An empty dir means a memory-only queue (nothing survives the
// process).
func Open(dir string, opts ...Option) (*Queue, error) {
	q := &Queue{
		maxConcurrent:    1,
		leaseTTL:         30 * time.Second,
		compactThreshold: DefaultCompactionThreshold,
		log:              obs.Discard(),
		jobs:             make(map[int]*Job),
		subs:             make(map[int]map[chan Event]bool),
		cancels:          make(map[int]context.CancelFunc),
	}
	for _, opt := range opts {
		opt(q)
	}
	if dir != "" {
		f, lock, jobs, err := openJournal(dir)
		if err != nil {
			return nil, err
		}
		q.journal = f
		q.lockf = lock
		q.jobs = jobs
	}
	now := time.Now()
	for id, j := range q.jobs {
		if id > q.nextID {
			q.nextID = id
		}
		if !j.State.Terminal() && q.tracer != nil {
			// Span clocks are unjournaled; a replayed job's waiting time
			// counts from this process's start. Untraced queues skip the
			// stamp so replayed state stays a pure function of the
			// journal (compaction-equivalence depends on that).
			j.submittedAt = now
			j.enqueuedAt = now
		}
		if j.State == StateRunning {
			// The previous process died mid-run; requeue. The journal
			// gets the corrected state so a second replay agrees.
			j.State = StateQueued
			j.Worker = ""
			j.lease = time.Time{}
			if err := appendJob(q.journal, j); err != nil {
				q.closeFilesLocked()
				return nil, err
			}
		}
	}
	// Startup compaction: a long-lived journal holds one line per
	// state transition ever made; above the threshold, rewrite it to
	// one last-wins line per job. Replay of the compacted journal is
	// equivalent by construction — it IS the replayed state.
	if q.journal != nil && q.compactThreshold > 0 && q.journal.Size() > q.compactThreshold {
		if err := compactJournal(q.journal, q.jobs); err != nil {
			q.closeFilesLocked()
			return nil, err
		}
	}
	ids := make([]int, 0, len(q.jobs))
	for id, j := range q.jobs {
		if j.State == StateQueued {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	q.pending = ids
	q.gaugesLocked() // no concurrency yet; seeds the depth gauge
	return q, nil
}

// Start launches the dispatcher and the lease sweeper. Jobs submitted
// before Start wait for it, unless a remote worker leases them first;
// calling it twice is a no-op.
func (q *Queue) Start(exec Executor) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.started || q.closed {
		return
	}
	q.started = true
	q.exec = exec
	q.ctx, q.cancel = context.WithCancel(context.Background())
	q.wg.Add(1)
	go q.sweep()
	q.dispatchLocked()
}

// sweep periodically requeues remote jobs whose lease expired without
// a heartbeat.
func (q *Queue) sweep() {
	defer q.wg.Done()
	tick := q.leaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-q.ctx.Done():
			return
		case <-t.C:
			q.expireLeases()
		}
	}
}

func (q *Queue) expireLeases() {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	for _, j := range q.jobs {
		if j.State == StateRunning && !j.lease.IsZero() && now.After(j.lease) {
			q.log.Warn("lease expired; requeueing",
				"job", j.ID, "worker", j.Worker, "attempt", j.Attempt)
			qExpired.Add(1)
			q.requeueLocked(j)
		}
	}
	q.dispatchLocked()
}

// requeueLocked puts a previously running job back at the front of
// the queue; its next attempt resumes from the store.
func (q *Queue) requeueLocked(j *Job) {
	q.traceRequeuedLocked(j, time.Now())
	j.State = StateQueued
	j.Worker = ""
	j.lease = time.Time{}
	q.pending = append([]int{j.ID}, q.pending...)
	qRequeued.Add(1)
	q.journalLocked(j)
	q.publishLocked(j)
	q.gaugesLocked()
}

// Submit validates and enqueues a request, returning the journaled
// job.
func (q *Queue) Submit(req Request) (Job, error) {
	if err := req.Validate(); err != nil {
		return Job{}, err
	}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, ErrClosed
	}
	q.nextID++
	if req.Name == "" && (req.Spec != nil || req.Generate != nil) {
		// Unnamed inline sources would all collapse onto one campaign
		// key ("generated-smart") and clobber or cross-resume each
		// other's records; bake the job id into the key at enqueue so
		// it stays stable across attempts yet unique per job.
		req.Name = fmt.Sprintf("%s-%s-job%d", req.Label(), strings.ToLower(req.Mode), q.nextID)
	}
	j := &Job{ID: q.nextID, Request: req, State: StateQueued}
	if q.tracer != nil {
		j.Trace = newTraceRef(req)
		now := time.Now()
		j.submittedAt = now
		j.enqueuedAt = now
	}
	q.jobs[j.ID] = j
	q.pending = append(q.pending, j.ID)
	if err := appendJob(q.journal, j); err != nil {
		// An unjournaled job would silently vanish on restart; refuse it.
		delete(q.jobs, j.ID)
		q.pending = q.pending[:len(q.pending)-1]
		q.nextID--
		q.mu.Unlock()
		return Job{}, err
	}
	qSubmitted.Add(1)
	q.log.Info("job submitted",
		"job", j.ID, "scenario", req.Label(), "mode", req.Mode, "runs", req.Runs)
	q.publishLocked(j)
	q.gaugesLocked()
	snap := *j // as accepted: queued, whatever dispatch does next
	q.dispatchLocked()
	q.mu.Unlock()
	return snap, nil
}

// Get returns a snapshot of one job.
func (q *Queue) Get(id int) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs returns snapshots of every job, sorted by id.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Cancel cancels a job: a queued job goes terminal immediately, a
// locally running job has its engine context cancelled, and a
// remotely leased job is marked cancelled here — the worker finds out
// on its next heartbeat and abandons the run. Cancelling a terminal
// job is a no-op.
func (q *Queue) Cancel(id int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.State.Terminal() {
		return nil
	}
	if j.State == StateQueued {
		for i, pid := range q.pending {
			if pid == id {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
	}
	q.finishLocked(j, StateCancelled, "")
	if cancel := q.cancels[id]; cancel != nil {
		cancel()
	}
	return nil
}

// Subscribe registers for a job's events, returning its opening event
// (the current state, taken under the registration's lock, so no event
// is missed in between) and the event channel. The returned func
// unsubscribes; slow subscribers lose oldest events first, never the
// terminal one. A job with MaxSubscribersPerRun subscribers takes no
// more until one unsubscribes.
func (q *Queue) Subscribe(id int) (Event, <-chan Event, func(), error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Event{}, nil, nil, ErrNotFound
	}
	if len(q.subs[id]) >= MaxSubscribersPerRun {
		return Event{}, nil, nil, ErrTooManySubscribers
	}
	ch := make(chan Event, 64)
	if q.subs[id] == nil {
		q.subs[id] = make(map[chan Event]bool)
	}
	q.subs[id][ch] = true
	unsub := func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		delete(q.subs[id], ch)
		if len(q.subs[id]) == 0 {
			delete(q.subs, id)
		}
	}
	return q.eventLocked(j), ch, unsub, nil
}

// eventLocked builds the job's Event enriched with derived telemetry:
// queue position for waiting jobs, episode throughput for running
// ones. Both come from queue-internal derived state, never from the
// journal.
func (q *Queue) eventLocked(j *Job) Event {
	ev := Event{ID: j.ID, State: j.State, Done: j.Done, Total: j.Request.Runs, Error: j.Error}
	switch j.State {
	case StateQueued:
		for i, id := range q.pending {
			if id == j.ID {
				ev.QueuePos = i + 1
				break
			}
		}
	case StateRunning:
		ev.EpsPerSec = j.rate.eps
	}
	return ev
}

// publishLocked fans the job's current state out to its subscribers.
// Sends never block: a full channel drops its oldest event to make
// room, so progress may be thinned but the terminal event always
// lands.
func (q *Queue) publishLocked(j *Job) {
	ev := q.eventLocked(j)
	for ch := range q.subs[j.ID] {
		select {
		case ch <- ev:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
	}
}

func (q *Queue) journalLocked(j *Job) {
	if err := appendJob(q.journal, j); err != nil {
		q.log.Error("journal append failed", "job", j.ID, "err", err)
	}
}

// progress records episode completions the local executor reports.
func (q *Queue) progress(id int, done int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok && j.State == StateRunning {
		q.progressLocked(j, done)
	}
}

// progressLocked records a running job's episode completions, reported
// by its executor or a heartbeat. Done only moves forward and never
// passes the request's runs.
func (q *Queue) progressLocked(j *Job, done int) {
	done = min(done, j.Request.Runs)
	if done <= j.Done {
		return
	}
	j.Done = done
	j.rate.observe(done, time.Now())
	q.publishLocked(j)
}

// dispatchLocked is the one point where queued jobs go out: first to
// the local executor while it has free slots, then to parked lease
// requests, oldest first. Every path that makes a job leasable ends
// here under the same lock, so a remote worker parked in Lease never
// takes a job a free local slot would have run. A parked request
// whose context is already done is released unleased.
func (q *Queue) dispatchLocked() {
	if q.closed {
		return
	}
	for q.started && len(q.cancels) < q.maxConcurrent && len(q.pending) > 0 {
		j := q.startLocked(LocalWorker)
		ctx, cancel := context.WithCancel(q.ctx)
		if q.traced(j) {
			// The local executor's engine runs under the dispatch span,
			// so its engine-job spans, which the episodes annotate, nest
			// into this trace.
			ctx = trace.NewContext(ctx, trace.SpanContext{
				Tracer:  q.tracer,
				TraceID: uint64(j.Trace.TraceID),
				SpanID:  execSpanID(j.Trace, j.Attempt),
			})
		}
		q.cancels[j.ID] = cancel
		q.wg.Add(1)
		go q.runLocal(ctx, cancel, *j)
	}
	for len(q.pending) > 0 && len(q.parked) > 0 {
		p := q.parked[0]
		q.parked = q.parked[1:]
		qParked.Add(-1)
		if p.ctx.Err() != nil {
			close(p.grant)
			continue
		}
		p.grant <- q.leaseLocked(p.worker)
	}
}

// runLocal executes one job on the local executor and records its
// outcome: done, failed, cancelled by a client, or — when the whole
// queue is shutting down — requeued for the next process to resume.
func (q *Queue) runLocal(ctx context.Context, cancel context.CancelFunc, job Job) {
	defer q.wg.Done()
	err := q.exec.Execute(ctx, job, func(done, _ int) { q.progress(job.ID, done) })
	cancel()

	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.cancels, job.ID)
	j := q.jobs[job.ID]
	switch {
	case j.State == StateCancelled:
		// Cancel already recorded the terminal state; the executor just
		// returned from the context cancellation.
	case err == nil:
		q.finishLocked(j, StateDone, "")
	case q.ctx.Err() != nil && errors.Is(err, context.Canceled):
		// Shutdown interrupted the job; hand it to the next process.
		q.requeueLocked(j)
	default:
		q.finishLocked(j, StateFailed, err.Error())
	}
	q.dispatchLocked()
}

// finishLocked moves a job into a terminal state: a running job's
// exec span closes with the state as its outcome, the run span closes,
// the job leaves its worker and lease, and the transition is counted,
// logged, journaled and published. msg is a failed job's error.
func (q *Queue) finishLocked(j *Job, state State, msg string) {
	now := time.Now()
	if j.State == StateRunning {
		q.traceExecEndLocked(j, now, string(state))
	}
	q.traceRunEndLocked(j, now, state)
	attrs := []any{"job", j.ID, "worker", j.Worker, "attempt", j.Attempt}
	j.State = state
	j.Error = msg
	j.Worker = ""
	j.lease = time.Time{}
	switch state {
	case StateDone:
		j.Done = j.Request.Runs
		qCompleted.Add(1)
		q.log.Info("job done", append(attrs, "runs", j.Request.Runs)...)
	case StateFailed:
		qFailed.Add(1)
		q.log.Warn("job failed", append(attrs, "err", msg)...)
	case StateCancelled:
		qCancelled.Add(1)
		q.log.Info("job cancelled", attrs...)
	}
	q.journalLocked(j)
	q.publishLocked(j)
	q.gaugesLocked()
}

// LocalWorker is the reserved worker name of the queue's own
// dispatcher; remote workers may not lease under it.
const LocalWorker = "local"

// MaxLeaseWait caps how long one lease request may park on an empty
// queue (LeaseRequest.Wait clamps the wait a worker asks for to it).
const MaxLeaseWait = 30 * time.Second

// parkedLease is one Lease call waiting for a job. dispatchLocked
// sends it its job on grant (buffered, so the send never blocks under
// the lock); Shutdown, Close and a hand-off that finds its context done
// close grant instead, releasing it unleased.
type parkedLease struct {
	ctx    context.Context
	worker string
	grant  chan Job
}

// Lease hands the next queued job to a remote worker. When nothing is
// queued it parks for up to wait, until a job becomes leasable, ctx is
// done or the queue shuts down; wait <= 0 answers at once. The
// returned job's Request.Resume reflects whether this attempt must
// fold already-persisted episodes. ok is false when no job was leased,
// and always when ctx is already done or the worker name is the
// reserved local sentinel. A job leased to a caller that then goes
// away is requeued when its lease expires, like any silent worker's.
func (q *Queue) Lease(ctx context.Context, worker string, wait time.Duration) (job Job, ok bool) {
	q.mu.Lock()
	if q.closed || worker == LocalWorker || ctx.Err() != nil {
		q.mu.Unlock()
		return Job{}, false
	}
	if len(q.pending) > 0 {
		job = q.leaseLocked(worker)
		q.mu.Unlock()
		return job, true
	}
	if wait <= 0 {
		q.mu.Unlock()
		return Job{}, false
	}
	p := &parkedLease{ctx: ctx, worker: worker, grant: make(chan Job, 1)}
	q.parked = append(q.parked, p)
	qParked.Add(1)
	q.mu.Unlock()

	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case job, ok = <-p.grant:
		return job, ok
	case <-ctx.Done():
	case <-t.C:
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := slices.Index(q.parked, p); i >= 0 {
		q.parked = slices.Delete(q.parked, i, i+1)
		qParked.Add(-1)
		return Job{}, false
	}
	// Off the list: granted or released between the wake-up and the
	// lock, so grant holds a job or is closed and this never blocks.
	job, ok = <-p.grant
	return job, ok
}

// leaseLocked leases the head of the queue to a remote worker.
func (q *Queue) leaseLocked(worker string) Job {
	j := q.startLocked(worker)
	snap := *j
	snap.Request.Resume = j.Resume()
	return snap
}

// startLocked moves the head of the queue to Running under worker: a
// remote worker's lease expires after the TTL unless renewed, the
// local dispatcher's never does (its context keeps the job alive).
func (q *Queue) startLocked(worker string) *Job {
	id := q.pending[0]
	q.pending = q.pending[1:]
	j := q.jobs[id]
	now := time.Now()
	j.State = StateRunning
	j.Attempt++
	j.Worker = worker
	if worker == LocalWorker {
		j.lease = time.Time{}
		q.log.Info("job dispatched locally", "job", id, "attempt", j.Attempt)
	} else {
		j.lease = now.Add(q.leaseTTL)
		q.log.Info("job leased", "job", id, "worker", worker, "attempt", j.Attempt)
	}
	qLeased.Add(1)
	q.traceDequeuedLocked(j, now)
	j.rate = rateState{lastDone: j.Done, lastTime: now}
	q.journalLocked(j)
	q.publishLocked(j)
	q.gaugesLocked()
	return j
}

// releaseParkedLocked answers every parked lease request unleased.
func (q *Queue) releaseParkedLocked() {
	for _, p := range q.parked {
		close(p.grant)
	}
	qParked.Add(-float64(len(q.parked)))
	q.parked = nil
}

// LeaseTTL reports the heartbeat deadline workers must beat.
func (q *Queue) LeaseTTL() time.Duration { return q.leaseTTL }

// heldLocked returns the job h holds a live remote lease on, the one
// lease check of every worker request after the lease: a local job's
// lease is zero, so no worker name reaches it, and an attempt that is
// not the current one, or none, is ErrLeaseLost like a foreign worker.
func (q *Queue) heldLocked(id int, h Holder) (*Job, error) {
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State != StateRunning || j.lease.IsZero() || j.Worker != h.Worker || j.Attempt != h.Attempt {
		return nil, ErrLeaseLost
	}
	return j, nil
}

// Heartbeat extends h's lease and records progress. It returns
// ErrLeaseLost when h no longer holds the job — the signal to abandon
// the run.
func (q *Queue) Heartbeat(id int, h Holder, done int) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(id, h)
	if err != nil {
		return err
	}
	now := time.Now()
	j.lease = now.Add(q.leaseTTL)
	qRenewed.Add(1)
	q.traceHeartbeatLocked(j, now)
	q.progressLocked(j, done)
	return nil
}

// CheckLease returns the job h holds — the lease gate of every worker
// request after the lease.
func (q *Queue) CheckLease(id int, h Holder) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(id, h)
	if err != nil {
		return Job{}, err
	}
	return *j, nil
}

// Complete marks a remotely executed job done.
func (q *Queue) Complete(id int, h Holder) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(id, h)
	if err != nil {
		return err
	}
	q.finishLocked(j, StateDone, "")
	return nil
}

// Fail records a remote execution failure. With requeue the job goes
// back to the front of the queue (a worker shutting down mid-run);
// without it the job is terminally failed.
func (q *Queue) Fail(id int, h Holder, msg string, requeue bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.heldLocked(id, h)
	if err != nil {
		return err
	}
	if requeue {
		q.log.Warn("worker returned job; requeueing",
			"job", id, "worker", h.Worker, "attempt", j.Attempt, "err", msg)
		q.requeueLocked(j)
		q.dispatchLocked()
	} else {
		q.finishLocked(j, StateFailed, msg)
	}
	return nil
}

// Shutdown stops the queue gracefully: no new submissions or leases,
// parked lease requests are answered unleased at once, in-flight local
// jobs are cancelled (and requeued in the journal so the next process
// resumes them), and the journal is flushed and closed. It waits for
// in-flight work up to ctx's deadline.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	q.releaseParkedLocked()
	cancel := q.cancel
	q.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = fmt.Errorf("runq: shutdown: %w", ctx.Err())
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.closeFilesLocked(); waitErr == nil {
		waitErr = err
	}
	return waitErr
}

// closeFilesLocked flushes and closes the journal and releases the
// queue directory's lock.
func (q *Queue) closeFilesLocked() error {
	var err error
	if q.journal != nil {
		err = q.journal.Close()
		q.journal = nil
	}
	if q.lockf != nil {
		q.lockf.Close()
		q.lockf = nil
	}
	return err
}
