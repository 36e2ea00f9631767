package runq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
)

// stubExec is a controllable executor: it steps through the job's
// episodes with a small delay (or blocked on a channel), tracks the
// maximum concurrency it observed, and returns promptly on
// cancellation.
type stubExec struct {
	step    time.Duration
	block   chan struct{} // non-nil: every episode waits for a receive
	fail    error         // returned after the last episode
	mu      sync.Mutex
	cur     int
	max     int
	started chan int // receives a job id as execution begins (if non-nil)
}

func (e *stubExec) Execute(ctx context.Context, job runq.Job, progress func(done, total int)) error {
	e.mu.Lock()
	e.cur++
	if e.cur > e.max {
		e.max = e.cur
	}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.cur--
		e.mu.Unlock()
	}()
	if e.started != nil {
		e.started <- job.ID
	}
	for i := 1; i <= job.Request.Runs; i++ {
		if e.block != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-e.block:
			}
		} else {
			step := e.step
			if step <= 0 {
				step = time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(step):
			}
		}
		progress(i, job.Request.Runs)
	}
	return e.fail
}

func (e *stubExec) maxConcurrent() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.max
}

func req(name string, runs int) runq.Request {
	return runq.Request{Scenario: "DS-2", Mode: "smart", Name: name, Runs: runs, Seed: 300}
}

// waitTerminal subscribes to the job and blocks until it reaches a
// terminal state, returning the final event.
func waitTerminal(t *testing.T, q *runq.Queue, id int, timeout time.Duration) runq.Event {
	t.Helper()
	ev, ch, unsub, err := q.Subscribe(id)
	if err != nil {
		t.Fatalf("subscribe %d: %v", id, err)
	}
	defer unsub()
	if ev.State.Terminal() {
		return ev
	}
	deadline := time.After(timeout)
	for {
		select {
		case ev := <-ch:
			if ev.State.Terminal() {
				return ev
			}
		case <-deadline:
			j, _ := q.Get(id)
			t.Fatalf("job %d still %s (%d/%d) after %v", id, j.State, j.Done, j.Request.Runs, timeout)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	q, err := runq.Open("")
	if err != nil {
		t.Fatal(err)
	}
	twoSources := req("two", 2)
	twoSources.Generate = &scenegen.Space{}
	for _, bad := range []runq.Request{
		{Scenario: "DS-2", Mode: "warp", Runs: 2},   // bad mode
		{Scenario: "DS-2", Mode: "smart", Runs: 0},  // no runs
		{Mode: "smart", Runs: 2},                    // no source
		{Scenario: "DS-99", Mode: "smart", Runs: 2}, // unknown scenario
		twoSources, // two sources at once
	} {
		if _, err := q.Submit(bad); err == nil {
			t.Errorf("Submit(%+v) accepted, want error", bad)
		}
	}
}

func TestQueueBoundedConcurrency(t *testing.T) {
	q, err := runq.Open("", runq.WithMaxConcurrent(3))
	if err != nil {
		t.Fatal(err)
	}
	exec := &stubExec{step: 5 * time.Millisecond}
	q.Start(exec)
	defer q.Shutdown(context.Background())

	const jobs = 12
	ids := make([]int, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := q.Submit(req("burst", 4))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		if ev := waitTerminal(t, q, id, 30*time.Second); ev.State != runq.StateDone {
			t.Fatalf("job %d ended %s: %s", id, ev.State, ev.Error)
		}
	}
	if got := exec.maxConcurrent(); got > 3 {
		t.Errorf("observed %d concurrent executions, max-concurrent is 3", got)
	} else if got != 3 {
		t.Errorf("burst of %d jobs peaked at %d concurrent executions, expected to saturate 3 slots", jobs, got)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	q, err := runq.Open("", runq.WithMaxConcurrent(1))
	if err != nil {
		t.Fatal(err)
	}
	exec := &stubExec{block: make(chan struct{}), started: make(chan int, 4)}
	q.Start(exec)
	defer q.Shutdown(context.Background())

	running, err := q.Submit(req("running", 3))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.Submit(req("queued", 3))
	if err != nil {
		t.Fatal(err)
	}
	<-exec.started // the first job occupies the single slot

	// Cancelling the queued job never executes it.
	if err := q.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if ev := waitTerminal(t, q, queued.ID, 5*time.Second); ev.State != runq.StateCancelled {
		t.Fatalf("queued job ended %s, want cancelled", ev.State)
	}

	// Cancelling the running job cancels its engine context.
	if err := q.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if ev := waitTerminal(t, q, running.ID, 5*time.Second); ev.State != runq.StateCancelled {
		t.Fatalf("running job ended %s, want cancelled", ev.State)
	}
	if err := q.Cancel(running.ID); err != nil {
		t.Errorf("cancelling a terminal job should be a no-op, got %v", err)
	}
	if err := q.Cancel(999); !errors.Is(err, runq.ErrNotFound) {
		t.Errorf("cancel of unknown job = %v, want ErrNotFound", err)
	}
}

func TestLeaseHeartbeatExpiryAndResume(t *testing.T) {
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(80*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	q.Start(&stubExec{})
	defer q.Shutdown(context.Background())

	sub, err := q.Submit(req("leased", 4))
	if err != nil {
		t.Fatal(err)
	}

	j1, ok := q.Lease(context.Background(), "w1", 0)
	if !ok || j1.ID != sub.ID || j1.Attempt != 1 {
		t.Fatalf("lease = %+v ok=%v", j1, ok)
	}
	if j1.Request.Resume {
		t.Error("first attempt should not resume")
	}
	if _, ok := q.Lease(context.Background(), "w2", 0); ok {
		t.Fatal("second lease should find an empty queue")
	}
	w1 := runq.Holder{Worker: "w1", Attempt: 1}
	if err := q.Heartbeat(j1.ID, runq.Holder{Worker: "w2", Attempt: 1}, 0); !errors.Is(err, runq.ErrLeaseLost) {
		t.Errorf("foreign heartbeat = %v, want ErrLeaseLost", err)
	}
	if err := q.Heartbeat(j1.ID, runq.Holder{Worker: "w1"}, 1); !errors.Is(err, runq.ErrLeaseLost) {
		t.Errorf("heartbeat without an attempt = %v, want ErrLeaseLost", err)
	}
	if err := q.Heartbeat(j1.ID, w1, 2); err != nil {
		t.Errorf("own heartbeat = %v", err)
	}
	if j, _ := q.Get(j1.ID); j.Done != 2 {
		t.Errorf("heartbeat progress = %d, want 2", j.Done)
	}
	if err := q.Heartbeat(j1.ID, w1, 9); err != nil {
		t.Errorf("own heartbeat = %v", err)
	}
	if j, _ := q.Get(j1.ID); j.Done != 4 || j.Request.Runs != 4 {
		t.Errorf("heartbeat of 9 done on a 4-run job = %d/%d, want 4/4", j.Done, j.Request.Runs)
	}

	// Stop heartbeating; the sweeper requeues the job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, _ := q.Get(j1.ID); j.State == runq.StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never requeued after lease expiry")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The next worker inherits attempt 2 and must resume.
	j2, ok := q.Lease(context.Background(), "w2", 0)
	if !ok || j2.Attempt != 2 || !j2.Request.Resume {
		t.Fatalf("re-lease = %+v ok=%v, want attempt 2 with resume", j2, ok)
	}
	if err := q.Heartbeat(j2.ID, w1, 3); !errors.Is(err, runq.ErrLeaseLost) {
		t.Errorf("stale worker heartbeat = %v, want ErrLeaseLost", err)
	}
	w2 := runq.Holder{Worker: "w2", Attempt: 2}
	if err := q.Complete(j2.ID, runq.Holder{Worker: "w2", Attempt: 1}); !errors.Is(err, runq.ErrLeaseLost) {
		t.Errorf("complete for a past attempt = %v, want ErrLeaseLost", err)
	}
	if err := q.Complete(j2.ID, w2); err != nil {
		t.Fatal(err)
	}
	if j, _ := q.Get(j2.ID); j.State != runq.StateDone {
		t.Errorf("state after complete = %s", j.State)
	}
	if err := q.Complete(j2.ID, w2); !errors.Is(err, runq.ErrLeaseLost) {
		t.Errorf("double complete = %v, want ErrLeaseLost", err)
	}
}

func TestFailRequeueHandsJobBack(t *testing.T) {
	q, err := runq.Open("", runq.WithMaxConcurrent(0))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := q.Submit(req("handback", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Lease(context.Background(), "w1", 0); !ok {
		t.Fatal("lease failed")
	}
	if err := q.Fail(sub.ID, runq.Holder{Worker: "w1", Attempt: 1}, "worker shut down", true); err != nil {
		t.Fatal(err)
	}
	j, _ := q.Get(sub.ID)
	if j.State != runq.StateQueued {
		t.Fatalf("state after requeue-fail = %s, want queued", j.State)
	}
	if _, ok := q.Lease(context.Background(), "w2", 0); !ok {
		t.Fatal("requeued job not leasable")
	}
	if err := q.Fail(sub.ID, runq.Holder{Worker: "w2", Attempt: 2}, "boom", false); err != nil {
		t.Fatal(err)
	}
	if j, _ := q.Get(sub.ID); j.State != runq.StateFailed || j.Error != "boom" {
		t.Fatalf("terminal failure = %+v", j)
	}
}

// TestGracefulShutdownRequeuesInFlight: Shutdown cancels a running
// job and journals it back as queued, so the next process picks it
// up and resumes.
func TestGracefulShutdownRequeuesInFlight(t *testing.T) {
	dir := t.TempDir()
	q, err := runq.Open(dir, runq.WithMaxConcurrent(1))
	if err != nil {
		t.Fatal(err)
	}
	exec := &stubExec{block: make(chan struct{}), started: make(chan int, 1)}
	q.Start(exec)
	sub, err := q.Submit(req("drain", 5))
	if err != nil {
		t.Fatal(err)
	}
	<-exec.started
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	q2, err := runq.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Shutdown(context.Background())
	j, ok := q2.Get(sub.ID)
	if !ok || j.State != runq.StateQueued {
		t.Fatalf("after restart job = %+v ok=%v, want queued", j, ok)
	}
	if j.Attempt != 1 {
		t.Errorf("attempt = %d, want 1 (one interrupted execution)", j.Attempt)
	}
	if !j.Resume() {
		t.Error("an interrupted job must resume from the store")
	}
}

// TestCrashReplayBitIdentical is the acceptance scenario: the server
// is killed (kill -9 — no graceful journal write) with a job running
// and partial episodes in the results store; a restart with the same
// queue dir replays the journal, requeues the job, and re-executes it
// with resume so the final aggregates are byte-identical to an
// uninterrupted run's. That holds too when an earlier run under the
// same record name left episode 5 in the store on another seed: the
// job does not own it, so the resumed attempt re-runs it.
func TestCrashReplayBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	request := runq.Request{Scenario: "DS-2", Mode: "smart", Name: "crashy", Runs: 6, Seed: 300}

	// Reference: the same job through the queue, uninterrupted.
	refPath := filepath.Join(t.TempDir(), "ref.jsonl")
	refStore, err := results.Open(refPath)
	if err != nil {
		t.Fatal(err)
	}
	qRef, err := runq.Open("", runq.WithMaxConcurrent(1))
	if err != nil {
		t.Fatal(err)
	}
	qRef.Start(runq.LocalExecutor{Store: refStore, Workers: 4})
	jr, err := qRef.Submit(request)
	if err != nil {
		t.Fatal(err)
	}
	if ev := waitTerminal(t, qRef, jr.ID, 2*time.Minute); ev.State != runq.StateDone {
		t.Fatalf("reference run ended %s: %s", ev.State, ev.Error)
	}
	if err := qRef.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	refStore.Close()
	ref, err := results.Load(refPath)
	if err != nil {
		t.Fatal(err)
	}

	stale := results.EpisodeRecord{V: results.Version, Campaign: "crashy", Index: 5, Seed: 99,
		Scenario: "DS-2", Mode: core.ModeSmart, ExpectCrashes: true, Launched: true, EB: true, Frames: 50}
	for _, tc := range []struct {
		name  string
		stale []results.EpisodeRecord
	}{
		{"partial-batch", nil},
		{"foreign-seed-stored", []results.EpisodeRecord{stale}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Crash: journal says the job is running (leased, never
			// finished) and the store holds the episodes that completed
			// before the kill.
			crashDir := t.TempDir()
			crashPath := filepath.Join(crashDir, "store.jsonl")
			q0, err := runq.Open(filepath.Join(crashDir, "queue"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := q0.Submit(request); err != nil {
				t.Fatal(err)
			}
			if _, ok := q0.Lease(context.Background(), "doomed", 0); !ok {
				t.Fatal("lease failed")
			}
			if err := q0.Shutdown(context.Background()); err != nil { // kill -9: no state transition hits the journal
				t.Fatal(err)
			}

			crashStore, err := results.Open(crashPath)
			if err != nil {
				t.Fatal(err)
			}
			cctx, ccancel := context.WithCancel(context.Background())
			eng := engine.New(
				engine.WithContext(cctx),
				engine.WithWorkers(2),
				engine.WithProgress(func(done, total int) {
					if done >= 2 {
						ccancel() // the process dies after two episodes landed
					}
				}),
			)
			c := experiment.Campaign{Name: "crashy", Scenario: scenario.DS2, Mode: core.ModeSmart, ExpectCrashes: true}
			_, err = experiment.RunCampaignOn(eng, c, request.Runs, request.Seed, nil,
				experiment.WithSink(crashStore))
			ccancel()
			if err == nil {
				t.Fatal("interrupted run should report the cancellation")
			}
			partial, err := crashStore.Episodes("crashy")
			if err != nil {
				t.Fatal(err)
			}
			if len(partial) == 0 || len(partial) >= request.Runs {
				t.Fatalf("crash left %d episodes, want a strict partial batch", len(partial))
			}
			for _, ep := range tc.stale {
				if err := crashStore.Append(ep); err != nil {
					t.Fatal(err)
				}
			}
			crashStore.Close()

			// Restart with the same queue dir and store: the job replays
			// as queued and re-executes with resume.
			q1, err := runq.Open(filepath.Join(crashDir, "queue"), runq.WithMaxConcurrent(1))
			if err != nil {
				t.Fatal(err)
			}
			store1, err := results.Open(crashPath)
			if err != nil {
				t.Fatal(err)
			}
			j, ok := q1.Get(1)
			if !ok || j.State != runq.StateQueued || !j.Resume() {
				t.Fatalf("replayed job = %+v ok=%v, want queued with resume", j, ok)
			}
			q1.Start(runq.LocalExecutor{Store: store1, Workers: 4})
			if ev := waitTerminal(t, q1, 1, 2*time.Minute); ev.State != runq.StateDone {
				t.Fatalf("resumed run ended %s: %s", ev.State, ev.Error)
			}
			if err := q1.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			store1.Close()

			// The acceptance check: results.Diff reports no movement, and
			// the aggregates are byte-identical.
			crashed, err := results.Load(crashPath)
			if err != nil {
				t.Fatal(err)
			}
			diffs, err := results.Diff(ref, crashed)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diffs {
				if d.RunsDelta != 0 || d.EBRateDelta != 0 || d.CrashRateDelta != 0 {
					t.Errorf("diff %s moved: %+v", d.Name, d)
				}
			}
			refRecs, _ := ref.Campaigns()
			crashRecs, _ := crashed.Campaigns()
			ra, _ := json.Marshal(refRecs)
			rb, _ := json.Marshal(crashRecs)
			if string(ra) != string(rb) {
				t.Errorf("aggregates diverged:\nuninterrupted: %s\ncrash+resume:  %s", ra, rb)
			}
		})
	}
}

// TestTornJournalTailTolerated: a crash mid-append leaves a partial
// final line; Open must drop it (and truncate, so later appends start
// on a clean boundary) instead of refusing to start.
func TestTornJournalTailTolerated(t *testing.T) {
	dir := t.TempDir()
	q0, err := runq.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q0.Submit(req("survivor", 2)); err != nil {
		t.Fatal(err)
	}
	if err := q0.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "queue.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"job","job":{"id":2,"requ`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	q1, err := runq.Open(dir)
	if err != nil {
		t.Fatalf("torn tail bricked the queue: %v", err)
	}
	j, ok := q1.Get(1)
	if !ok || j.State != runq.StateQueued {
		t.Fatalf("survivor job = %+v ok=%v", j, ok)
	}
	if _, ok := q1.Get(2); ok {
		t.Fatal("the torn line must not produce a job")
	}
	// The tail was truncated: appending and replaying again is clean.
	if _, err := q1.Submit(req("after-repair", 2)); err != nil {
		t.Fatal(err)
	}
	if err := q1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	q2, err := runq.Open(dir)
	if err != nil {
		t.Fatalf("journal corrupt after repair+append: %v", err)
	}
	defer q2.Shutdown(context.Background())
	if len(q2.Jobs()) != 2 {
		t.Fatalf("jobs after repair = %+v", q2.Jobs())
	}

	// Corruption that is NOT the final line stays fatal.
	bad := filepath.Join(t.TempDir(), "queue")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "garbage-line\n" + `{"kind":"job","job":{"id":1,"request":{"scenario":"DS-2","mode":"smart","runs":2},"state":"queued","total":2}}` + "\n"
	if err := os.WriteFile(filepath.Join(bad, "queue.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runq.Open(bad); err == nil {
		t.Fatal("mid-file corruption must refuse to replay")
	}
}

// TestQueueDirLocked: two processes (here: two queues) must not share
// one journal.
func TestQueueDirLocked(t *testing.T) {
	dir := t.TempDir()
	q1, err := runq.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runq.Open(dir); err == nil {
		t.Fatal("second Open on a locked queue dir must fail")
	}
	if err := q1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	q2, err := runq.Open(dir)
	if err != nil {
		t.Fatalf("lock not released on close: %v", err)
	}
	q2.Shutdown(context.Background())
}

// TestJournalCompactionReplayEquivalent: startup compaction must
// rewrite queue.jsonl to one last-wins line per job whose replay is
// indistinguishable from replaying the full transition history.
func TestJournalCompactionReplayEquivalent(t *testing.T) {
	dir := t.TempDir()
	q0, err := runq.Open(dir, runq.WithCompactionThreshold(0)) // build history, no compaction
	if err != nil {
		t.Fatal(err)
	}
	// A transition-heavy history: submissions, a cancellation, and a
	// completed local run — several journal lines per job.
	for i := 0; i < 6; i++ {
		if _, err := q0.Submit(req(fmt.Sprintf("compact-%d", i), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q0.Cancel(2); err != nil {
		t.Fatal(err)
	}
	q0.Start(&stubExec{step: time.Millisecond})
	waitTerminal(t, q0, 1, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := q0.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	path := filepath.Join(dir, "queue.jsonl")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := len(bytes.Split(bytes.TrimSpace(before), []byte("\n")))

	// Replay WITHOUT compaction: the reference state. (Shutdown
	// requeued the jobs that were still queued/running, so a plain
	// replay is already deterministic.)
	qRef, err := runq.Open(dir, runq.WithCompactionThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	refJobs := qRef.Jobs()
	if err := qRef.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Replay WITH a tiny threshold: compacts on open.
	qC, err := runq.Open(dir, runq.WithCompactionThreshold(1))
	if err != nil {
		t.Fatal(err)
	}
	compactJobs := qC.Jobs()
	if err := qC.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refJobs, compactJobs) {
		t.Errorf("compaction changed the replayed state:\nref:     %+v\ncompact: %+v", refJobs, compactJobs)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := len(bytes.Split(bytes.TrimSpace(after), []byte("\n")))
	if gotLines != len(refJobs) {
		t.Errorf("compacted journal has %d lines, want one per job (%d)", gotLines, len(refJobs))
	}
	if gotLines >= wantLines {
		t.Errorf("compaction did not shrink the journal: %d -> %d lines", wantLines, gotLines)
	}

	// The compacted journal replays identically again (idempotence),
	// and appending to it works.
	qAgain, err := runq.Open(dir, runq.WithCompactionThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	defer qAgain.Shutdown(context.Background())
	if got := qAgain.Jobs(); !reflect.DeepEqual(got, refJobs) {
		t.Errorf("replay after compaction differs:\nref: %+v\ngot: %+v", refJobs, got)
	}
	if _, err := qAgain.Submit(req("post-compact", 1)); err != nil {
		t.Fatal(err)
	}
}
