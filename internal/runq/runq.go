// Package runq is the durable campaign run queue behind the HTTP
// service: jobs (a run request plus id and state) persist to an
// append-only JSONL journal, a dispatcher executes at most a bounded
// number of jobs at once, and remote worker processes on other
// machines lease jobs over HTTP, heartbeat while they run them, and
// stream episode records back into the served store. The paper's
// evaluation is thousands of episodes per (scenario, mode) cell; the
// queue is what lets many clients submit such sweeps and survive
// restarts — on reopen the journal replays (last state wins, like the
// results store) and interrupted jobs re-execute bit-identically.
//
// A leased job takes one path, whether the local slot or a worker runs
// it. Job.Own is the one rule for which stored episodes are the job's:
// its record name, a record version this build reads, an index in
// [0, Request.Runs) and the seed the engine derives for that index.
// Both executors hand the job to one runner (Job.run), which builds the
// job's engine and, on a resuming attempt, reuses exactly the job's own
// stored episodes and re-runs the rest; Job.Fold folds exactly the
// job's own episodes into the aggregate a remote completion stores.
package runq

import "time"

// State is a job's lifecycle state. Queued and Running are live;
// Done, Failed and Cancelled are terminal.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one queued campaign run: the request that defines it, the
// identity the queue assigned, and its current progress. Job values
// are snapshots — the queue hands out copies, never its own pointers.
type Job struct {
	ID      int     `json:"id"`
	Request Request `json:"request"`
	State   State   `json:"state"`
	// Done counts the episodes finished of Request.Runs.
	Done int `json:"done"`
	// Attempt counts how many times the job has been leased for
	// execution; a job re-leased after a crash or lost heartbeat has
	// Attempt > 1 and must resume from the store's episodes.
	Attempt int `json:"attempt,omitempty"`
	// Worker names who is executing the job ("local" for the queue's
	// own dispatcher, the worker's self-chosen name for remote leases).
	Worker string `json:"worker,omitempty"`
	Error  string `json:"error,omitempty"`
	// Trace is the job's deterministic trace identity, set at submit
	// when the queue has a tracer. Journaled, so every attempt — in
	// this process or the next — stays on one trace.
	Trace *TraceRef `json:"trace,omitempty"`

	// lease is when a remote worker's lease expires; zero for local
	// execution (the dispatcher's context keeps those alive). Not
	// journaled: replay requeues running jobs regardless.
	lease time.Time
	// Trace-span clocks, unjournaled (a restarted queue restarts them):
	// when the job was submitted, when it last (re)entered the queue,
	// when its current attempt began, and a per-job heartbeat counter.
	submittedAt time.Time
	enqueuedAt  time.Time
	executingAt time.Time
	hbSeq       uint32
	// rate is the current attempt's episode throughput, for progress
	// events; unjournaled, reset when an attempt starts.
	rate rateState
}

// Resume reports whether executing the job must fold its own episodes
// already persisted in the results store instead of re-running them:
// either
// the client asked for it, or a previous attempt already streamed
// episodes that a bit-identical aggregate has to reuse. A queued job
// with any past attempt resumes; a running one resumes when an
// attempt preceded the current lease.
func (j Job) Resume() bool {
	if j.Request.Resume {
		return true
	}
	if j.State == StateQueued {
		return j.Attempt >= 1
	}
	return j.Attempt > 1
}

// Event is one progress notification for a job, published on every
// state transition and episode completion. The final event of a
// subscription carries a terminal State.
type Event struct {
	ID    int   `json:"id"`
	State State `json:"state"`
	Done  int   `json:"done"`
	Total int   `json:"total"`
	// EpsPerSec is the job's recent episode throughput (moving
	// average), present while the job is running and making progress.
	EpsPerSec float64 `json:"eps_per_sec,omitempty"`
	// QueuePos is the job's 1-based position among waiting jobs,
	// present while the job is queued.
	QueuePos int    `json:"queue_pos,omitempty"`
	Error    string `json:"error,omitempty"`
}
