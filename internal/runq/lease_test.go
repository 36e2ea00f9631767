package runq

// Internal tests of the parked (long-poll) lease: they wait on the
// queue's parked list directly, so every request in them is known to
// be parked before the event that should wake it.

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// holdExec runs no episodes: every job blocks until its context ends.
type holdExec struct{}

func (holdExec) Execute(ctx context.Context, job Job, progress func(done, total int)) error {
	<-ctx.Done()
	return ctx.Err()
}

func leaseReq(name string) Request {
	return Request{Scenario: "DS-2", Mode: "smart", Name: name, Runs: 2, Seed: 300}
}

// leaseResult is what one Lease call returned.
type leaseResult struct {
	job Job
	ok  bool
}

// parkLease runs Lease in the background and waits until the request
// is parked on the queue.
func parkLease(t *testing.T, q *Queue, ctx context.Context, worker string, wait time.Duration) <-chan leaseResult {
	t.Helper()
	q.mu.Lock()
	before := len(q.parked)
	q.mu.Unlock()
	out := make(chan leaseResult, 1)
	go func() {
		job, ok := q.Lease(ctx, worker, wait)
		out <- leaseResult{job, ok}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		q.mu.Lock()
		n := len(q.parked)
		q.mu.Unlock()
		if n > before {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease request of %s never parked", worker)
		}
		time.Sleep(time.Millisecond)
	}
}

func awaitLease(t *testing.T, ch <-chan leaseResult, within time.Duration) leaseResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(within):
		t.Fatalf("parked lease still waiting after %v", within)
		return leaseResult{}
	}
}

func TestLeaseParkedGetsSubmittedJob(t *testing.T) {
	q, err := Open("", WithMaxConcurrent(0))
	if err != nil {
		t.Fatal(err)
	}
	q.Start(holdExec{})
	defer q.Shutdown(context.Background())

	ch := parkLease(t, q, context.Background(), "w1", 10*time.Second)
	sub, err := q.Submit(leaseReq("parked"))
	if err != nil {
		t.Fatal(err)
	}
	r := awaitLease(t, ch, 2*time.Second)
	if !r.ok || r.job.ID != sub.ID || r.job.Attempt != 1 || r.job.Worker != "w1" || r.job.Request.Resume {
		t.Fatalf("parked lease = %+v ok=%v, want job %d attempt 1 on w1, no resume", r.job, r.ok, sub.ID)
	}
	if j, _ := q.Get(sub.ID); j.State != StateRunning || j.Worker != "w1" {
		t.Fatalf("job after parked lease = %+v", j)
	}
}

// TestLeaseParkedWokenByRequeue: a job that returns to the queue, by a
// missed heartbeat or by a worker handing it back, goes straight to a
// parked request as the next attempt, with resume. (The hand-back case
// runs with a 30 s lease, so the sweeper, which ticks every quarter
// lease, cannot be what wakes the request within the second it gets.)
func TestLeaseParkedWokenByRequeue(t *testing.T) {
	for by, ttl := range map[string]time.Duration{"ttl": 100 * time.Millisecond, "fail": 30 * time.Second} {
		t.Run(by, func(t *testing.T) {
			q, err := Open("", WithMaxConcurrent(0), WithLeaseTTL(ttl))
			if err != nil {
				t.Fatal(err)
			}
			q.Start(holdExec{})
			defer q.Shutdown(context.Background())
			sub, err := q.Submit(leaseReq("requeued"))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := q.Lease(context.Background(), "w1", 0); !ok {
				t.Fatal("first lease failed")
			}
			ch := parkLease(t, q, context.Background(), "w2", 10*time.Second)
			if by == "fail" {
				if err := q.Fail(sub.ID, Holder{Worker: "w1", Attempt: 1}, "worker shut down", true); err != nil {
					t.Fatal(err)
				}
			} // else: w1 never heartbeats and the sweeper requeues the job.
			r := awaitLease(t, ch, time.Second)
			if !r.ok || r.job.ID != sub.ID || r.job.Attempt != 2 || !r.job.Request.Resume {
				t.Fatalf("parked lease after requeue = %+v ok=%v, want attempt 2 with resume", r.job, r.ok)
			}
		})
	}
}

// TestLeaseIdleWaitThenEmpty: on an idle queue a parked request comes
// back empty after about its wait; one without a wait at once.
func TestLeaseIdleWaitThenEmpty(t *testing.T) {
	q, err := Open("", WithMaxConcurrent(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Shutdown(context.Background())
	const wait = 150 * time.Millisecond
	start := time.Now()
	if _, ok := q.Lease(context.Background(), "w1", wait); ok {
		t.Fatal("idle queue leased a job")
	}
	if took := time.Since(start); took < wait || took > wait+2*time.Second {
		t.Fatalf("parked lease answered after %v, want about %v", took, wait)
	}
	start = time.Now()
	if _, ok := q.Lease(context.Background(), "w1", 0); ok {
		t.Fatal("idle queue leased a job")
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("lease without a wait answered after %v, want at once", took)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.parked) != 0 {
		t.Fatalf("%d requests still parked", len(q.parked))
	}
}

// TestLeaseReleasedByShutdownAndClose: Shutdown answers every parked
// request at once, and later requests too, on a started queue
// ("shutdown") and on one that was only opened, which it closes
// ("close").
func TestLeaseReleasedByShutdownAndClose(t *testing.T) {
	for _, stop := range []string{"shutdown", "close"} {
		t.Run(stop, func(t *testing.T) {
			q, err := Open("", WithMaxConcurrent(0))
			if err != nil {
				t.Fatal(err)
			}
			if stop == "shutdown" {
				q.Start(holdExec{})
			}
			a := parkLease(t, q, context.Background(), "w1", time.Minute)
			b := parkLease(t, q, context.Background(), "w2", time.Minute)
			start := time.Now()
			if err := q.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, ch := range []<-chan leaseResult{a, b} {
				if r := awaitLease(t, ch, time.Second); r.ok {
					t.Fatalf("released request leased %+v", r.job)
				}
			}
			if took := time.Since(start); took > 100*time.Millisecond {
				t.Fatalf("parked requests released after %v, want within 100ms", took)
			}
			if _, ok := q.Lease(context.Background(), "w3", time.Minute); ok {
				t.Fatal("closed queue leased a job")
			}
		})
	}
}

// TestLeaseCancelledLeasesNothing: a request whose context ends before
// a job arrives takes nothing, whether it saw the end itself or the
// job's hand-off found it first; the job stays queued at attempt 0.
func TestLeaseCancelledLeasesNothing(t *testing.T) {
	check := func(t *testing.T, q *Queue, id int) {
		t.Helper()
		j, _ := q.Get(id)
		if j.State != StateQueued || j.Attempt != 0 || j.Worker != "" {
			t.Fatalf("job after a cancelled lease = %+v, want queued at attempt 0", j)
		}
	}
	t.Run("before", func(t *testing.T) {
		q, err := Open("", WithMaxConcurrent(0))
		if err != nil {
			t.Fatal(err)
		}
		defer q.Shutdown(context.Background())
		ctx, cancel := context.WithCancel(context.Background())
		ch := parkLease(t, q, ctx, "w1", time.Minute)
		cancel()
		if r := awaitLease(t, ch, time.Second); r.ok {
			t.Fatalf("cancelled request leased %+v", r.job)
		}
		sub, err := q.Submit(leaseReq("after-cancel"))
		if err != nil {
			t.Fatal(err)
		}
		check(t, q, sub.ID)
	})
	t.Run("done-context", func(t *testing.T) {
		q, err := Open("", WithMaxConcurrent(0))
		if err != nil {
			t.Fatal(err)
		}
		defer q.Shutdown(context.Background())
		sub, err := q.Submit(leaseReq("queued"))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, ok := q.Lease(ctx, "w1", time.Minute); ok {
			t.Fatal("a request with a done context leased a job")
		}
		check(t, q, sub.ID)
	})
	t.Run("hand-off", func(t *testing.T) {
		// A request cancelled while still on the parked list: the
		// hand-off skips it and releases it unleased.
		q, err := Open("", WithMaxConcurrent(0))
		if err != nil {
			t.Fatal(err)
		}
		defer q.Shutdown(context.Background())
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := &parkedLease{ctx: ctx, worker: "w1", grant: make(chan Job, 1)}
		q.mu.Lock()
		q.parked = append(q.parked, p)
		qParked.Add(1)
		q.mu.Unlock()
		sub, err := q.Submit(leaseReq("handed-off"))
		if err != nil {
			t.Fatal(err)
		}
		if job, ok := <-p.grant; ok {
			t.Fatalf("cancelled parked request was handed %+v", job)
		}
		check(t, q, sub.ID)
	})
}

// TestLeaseLocalSlotFirst: with a free local slot and a parked remote
// request, a submitted job runs locally and the request stays parked.
func TestLeaseLocalSlotFirst(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		q, err := Open("", WithMaxConcurrent(1))
		if err != nil {
			t.Fatal(err)
		}
		q.Start(holdExec{})
		ch := parkLease(t, q, context.Background(), "w1", time.Minute)
		sub, err := q.Submit(leaseReq("local-first"))
		if err != nil {
			t.Fatal(err)
		}
		if j, _ := q.Get(sub.ID); j.Worker != LocalWorker {
			t.Fatalf("rep %d: first job went to %q, want the local slot", rep, j.Worker)
		}
		// The next job finds the local slot busy and goes to the parked
		// request.
		sub2, err := q.Submit(leaseReq("remote-second"))
		if err != nil {
			t.Fatal(err)
		}
		if r := awaitLease(t, ch, time.Second); !r.ok || r.job.ID != sub2.ID {
			t.Fatalf("rep %d: parked request got %+v ok=%v, want job %d", rep, r.job, r.ok, sub2.ID)
		}
		if err := q.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLeaseWaitCapped(t *testing.T) {
	for _, c := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, 0},
		{-5, 0},
		{math.MinInt64, 0},
		{1500, 1500 * time.Millisecond},
		{MaxLeaseWait.Milliseconds(), MaxLeaseWait},
		{MaxLeaseWait.Milliseconds() + 1, MaxLeaseWait},
		{math.MaxInt64, MaxLeaseWait},
	} {
		if got := (LeaseRequest{Worker: "w", WaitMillis: c.ms}).Wait(); got != c.want {
			t.Errorf("wait_ms %d: Wait() = %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestLeaseWorkerReparksWithoutSleeping: against a server that holds
// an empty lease request for longer than Poll, the worker asks for its
// wait on every request and leases again at once after each 204.
// (TestWorkerBackoffOnFlakyServer's server answers at once, and there
// the worker sleeps Poll.)
func TestLeaseWorkerReparksWithoutSleeping(t *testing.T) {
	var mu sync.Mutex
	var waits []int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		waits = append(waits, req.WaitMillis)
		mu.Unlock()
		select {
		case <-time.After(30 * time.Millisecond):
		case <-r.Context().Done():
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var slept []time.Duration
	w := &Worker{
		Server: ts.URL,
		Name:   "reparker",
		Poll:   10 * time.Millisecond,
		sleep: func(ctx context.Context, d time.Duration) bool {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return ctx.Err() == nil
		},
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(waits)
		mu.Unlock()
		if n >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker made %d lease requests in 10 s", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 0 {
		t.Errorf("worker slept %v between held lease requests, want none", slept)
	}
	for i, ms := range waits {
		if ms != leaseWait.Milliseconds() {
			t.Errorf("lease request %d asked for wait_ms %d, want %d", i, ms, leaseWait.Milliseconds())
		}
	}
}
