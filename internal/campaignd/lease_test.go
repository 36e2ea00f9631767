package campaignd

// POST /lease as a long poll. A request parks on the server only once
// its body has arrived, so the tests give it parkDelay to get there
// before the event that should wake it; if it is late, it takes the job
// at once instead and every assertion below still holds.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
)

const parkDelay = 50 * time.Millisecond

// leaseReply is one POST /lease answer and how long it took.
type leaseReply struct {
	status int
	lease  runq.LeaseResponse
	took   time.Duration
	err    error
}

// postLease sends POST /lease with body in the background.
func postLease(ctx context.Context, base, body string) <-chan leaseReply {
	out := make(chan leaseReply, 1)
	go func() {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/lease", bytes.NewBufferString(body))
		if err != nil {
			out <- leaseReply{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			out <- leaseReply{err: err}
			return
		}
		defer resp.Body.Close()
		r := leaseReply{status: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			r.err = json.NewDecoder(resp.Body).Decode(&r.lease)
		}
		r.took = time.Since(start)
		out <- r
	}()
	return out
}

func awaitReply(t *testing.T, ch <-chan leaseReply, within time.Duration) leaseReply {
	t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("POST /lease: %v", r.err)
		}
		return r
	case <-time.After(within):
		t.Fatalf("POST /lease still parked after %v", within)
		return leaseReply{}
	}
}

func remoteOnly(t *testing.T, ttl time.Duration) (*runq.Queue, string) {
	t.Helper()
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(ttl))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Shutdown(context.Background()) })
	ts := newTestServerFrom(t, New(results.NewMemStore(), WithQueue(q)))
	return q, ts.URL
}

func TestLeaseParksUntilRunSubmitted(t *testing.T) {
	_, url := remoteOnly(t, 5*time.Second)
	ch := postLease(context.Background(), url, `{"worker":"w1","wait_ms":10000}`)
	time.Sleep(parkDelay)
	st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"parked","runs":2,"seed":10}`)
	r := awaitReply(t, ch, 5*time.Second)
	if r.status != http.StatusOK || r.lease.Job.ID != st.ID || r.lease.Job.Attempt != 1 || r.lease.LeaseTTLMillis != 5000 {
		t.Fatalf("parked lease: status %d, %+v", r.status, r.lease)
	}
}

// TestLeaseParkedWokenByFailRequeue runs with a 30 s lease: the
// sweeper ticks every quarter lease, so only the hand-back itself can
// wake the parked request within the second it gets.
func TestLeaseParkedWokenByFailRequeue(t *testing.T) {
	_, url := remoteOnly(t, 30*time.Second)
	st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"handback","runs":2,"seed":10}`)
	if r := awaitReply(t, postLease(context.Background(), url, `{"worker":"w1"}`), 5*time.Second); r.status != http.StatusOK {
		t.Fatalf("first lease: status %d", r.status)
	}
	ch := postLease(context.Background(), url, `{"worker":"w2","wait_ms":10000}`)
	time.Sleep(parkDelay)
	raw, _ := json.Marshal(runq.FailRequest{Worker: "w1", Error: "worker shut down", Requeue: true})
	resp, err := http.Post(fmt.Sprintf("%s/runs/%d/fail", url, st.ID), "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail-requeue: status %d", resp.StatusCode)
	}
	r := awaitReply(t, ch, time.Second)
	if r.status != http.StatusOK || r.lease.Job.ID != st.ID || r.lease.Job.Attempt != 2 || !r.lease.Job.Request.Resume {
		t.Fatalf("parked lease after hand-back: status %d, %+v", r.status, r.lease.Job)
	}
}

// TestLeaseHungUpClientLeasesNothing: a parked lease whose client hangs
// up before a run arrives takes nothing; the run stays queued at
// attempt 0 for the next worker.
func TestLeaseHungUpClientLeasesNothing(t *testing.T) {
	_, url := remoteOnly(t, 30*time.Second)
	ctx, hangUp := context.WithCancel(context.Background())
	ch := postLease(ctx, url, `{"worker":"w1","wait_ms":10000}`)
	time.Sleep(parkDelay)
	hangUp()
	if r := <-ch; r.err == nil {
		t.Fatalf("hung-up lease answered %d", r.status)
	}
	time.Sleep(4 * parkDelay) // the server notices the closed connection
	st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"unleased","runs":2,"seed":10}`)
	var cur RunStatus
	getJSON(t, fmt.Sprintf("%s/runs/%d", url, st.ID), &cur)
	if cur.State != "queued" || cur.Attempt != 0 || cur.Worker != "" {
		t.Fatalf("run after a hung-up lease = %+v, want queued at attempt 0", cur)
	}
}

// TestLeaseIdleAnswers204: an idle queue answers a parked lease with 204
// after about its wait, and a lease without wait_ms at once.
func TestLeaseIdleAnswers204(t *testing.T) {
	_, url := remoteOnly(t, 5*time.Second)
	const wait = 200 * time.Millisecond
	r := awaitReply(t, postLease(context.Background(), url, fmt.Sprintf(`{"worker":"w1","wait_ms":%d}`, wait.Milliseconds())), 5*time.Second)
	if r.status != http.StatusNoContent || r.took < wait || r.took > wait+2*time.Second {
		t.Fatalf("idle parked lease: status %d after %v, want 204 after about %v", r.status, r.took, wait)
	}
	r = awaitReply(t, postLease(context.Background(), url, `{"worker":"w1"}`), 5*time.Second)
	if r.status != http.StatusNoContent || r.took > 250*time.Millisecond {
		t.Fatalf("lease without wait_ms: status %d after %v, want 204 at once", r.status, r.took)
	}
}

// TestLeaseReleasedByServerClose: closing the server's own queue
// answers parked leases with 204 at once.
func TestLeaseReleasedByServerClose(t *testing.T) {
	srv := New(results.NewMemStore())
	ts := newTestServerFrom(t, srv)
	a := postLease(context.Background(), ts.URL, `{"worker":"w1","wait_ms":60000}`)
	b := postLease(context.Background(), ts.URL, `{"worker":"w2","wait_ms":60000}`)
	time.Sleep(parkDelay)
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []<-chan leaseReply{a, b} {
		if r := awaitReply(t, ch, time.Second); r.status != http.StatusNoContent {
			t.Fatalf("released lease: status %d, want 204", r.status)
		}
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("parked leases answered %v after Close, want within 100ms", took)
	}
}

// TestLeaseGrantedToVanishedClient: a run leased to a client that hangs
// up without a heartbeat is requeued when its lease expires, and a real
// worker finishes it with the aggregate an in-process run computes.
func TestLeaseGrantedToVanishedClient(t *testing.T) {
	q, url := remoteOnly(t, 200*time.Millisecond)
	ctx, hangUp := context.WithCancel(context.Background())
	ch := postLease(ctx, url, `{"worker":"ghost","wait_ms":10000}`)
	time.Sleep(parkDelay)
	body := `{"scenario":"DS-2","mode":"smart","name":"orphaned","runs":2,"seed":300}`
	st := postRun(t, url, body)
	r := awaitReply(t, ch, 5*time.Second)
	hangUp()
	if r.status != http.StatusOK || r.lease.Job.ID != st.ID {
		t.Fatalf("ghost lease: status %d, %+v", r.status, r.lease.Job)
	}

	wctx, stop := context.WithTimeout(context.Background(), 2*time.Minute)
	defer stop()
	w := &runq.Worker{Server: url, Name: "w2", Workers: 2, Poll: 20 * time.Millisecond}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = w.Run(wctx)
	}()
	final := waitRun(t, url, st.ID, 2*time.Minute)
	stop()
	<-workerDone
	if final.State != "done" || final.Attempt != 2 {
		t.Fatalf("orphaned run ended %q at attempt %d (%s), want done at attempt 2", final.State, final.Attempt, final.Error)
	}

	var req runq.Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	want, err := runq.ExecuteRequest(engine.New(engine.WithWorkers(2)), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got results.CampaignRecord
	getJSON(t, url+"/campaigns/orphaned", &got)
	rawWant, _ := json.Marshal(want)
	rawGot, _ := json.Marshal(got)
	if !bytes.Equal(rawWant, rawGot) {
		t.Errorf("served aggregate differs from an in-process run:\nwant %s\ngot  %s", rawWant, rawGot)
	}
	if j, _ := q.Get(st.ID); j.State != runq.StateDone {
		t.Errorf("queue holds the run as %s", j.State)
	}
}

// TestLeaseLocalSlotFirst: with a free local slot and a parked remote
// lease, a submitted run goes to the local slot, every time; the
// parked lease is answered 204 when the server closes.
func TestLeaseLocalSlotFirst(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		exec := newStepExec()
		srv := New(results.NewMemStore(), WithExecutor(exec))
		ts := newTestServerFrom(t, srv)
		ch := postLease(context.Background(), ts.URL, `{"worker":"w1","wait_ms":60000}`)
		time.Sleep(parkDelay / 2)
		st := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"local-first","runs":2,"seed":10}`)
		<-exec.started
		var cur RunStatus
		getJSON(t, fmt.Sprintf("%s/runs/%d", ts.URL, st.ID), &cur)
		if cur.Worker != runq.LocalWorker {
			t.Fatalf("rep %d: first run went to %q, want the local slot", rep, cur.Worker)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if r := awaitReply(t, ch, time.Second); r.status != http.StatusNoContent {
			t.Fatalf("rep %d: parked lease: status %d, want 204", rep, r.status)
		}
		ts.Close()
	}
}

// completion is a 2-run DS-2 job named "own", leased to w1 on a
// remote-only queue, for the POST /runs/{id}/complete tests.
type completion struct {
	t     *testing.T
	url   string
	id    int
	store *results.MemStore
}

func newCompletion(t *testing.T) *completion {
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Shutdown(context.Background()) })
	store := results.NewMemStore()
	url := newTestServerFrom(t, New(store, WithQueue(q))).URL
	st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"own","runs":2,"seed":10}`)
	if r := awaitReply(t, postLease(context.Background(), url, `{"worker":"w1"}`), 5*time.Second); r.status != http.StatusOK {
		t.Fatalf("lease: status %d", r.status)
	}
	return &completion{t: t, url: url, id: st.ID, store: store}
}

// aggregate folds runs episodes into an aggregate named name.
func aggregate(name string, runs int) *results.CampaignRecord {
	agg := results.NewCampaign(name, "DS-2", core.ModeSmart, true, 10)
	for i := 0; i < runs; i++ {
		agg.Fold(results.EpisodeRecord{Campaign: name, Index: i, Seed: 10 + int64(i), Scenario: "DS-2", Mode: core.ModeSmart})
	}
	return &agg
}

// complete posts w1's completion with agg (nil: none) and returns the
// status.
func (c *completion) complete(agg *results.CampaignRecord) int {
	c.t.Helper()
	raw, _ := json.Marshal(runq.CompleteRequest{Worker: "w1", Campaign: agg})
	resp, err := http.Post(fmt.Sprintf("%s/runs/%d/complete", c.url, c.id), "application/json", bytes.NewReader(raw))
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// refused posts a completion that must answer 400, store nothing and
// leave the job running under w1's lease.
func (c *completion) refused(what string, agg *results.CampaignRecord) {
	c.t.Helper()
	if got := c.complete(agg); got != http.StatusBadRequest {
		c.t.Fatalf("complete %s: status %d, want 400", what, got)
	}
	if recs, _ := c.store.Campaigns(); len(recs) != 0 {
		c.t.Fatalf("complete %s stored %d campaigns", what, len(recs))
	}
	var cur RunStatus
	getJSON(c.t, fmt.Sprintf("%s/runs/%d", c.url, c.id), &cur)
	if cur.State != "running" || cur.Worker != "w1" {
		c.t.Fatalf("run after a refused complete %s = %+v, want running on w1", what, cur)
	}
}

// accepted posts the job's own full aggregate, which completes it.
func (c *completion) accepted() {
	c.t.Helper()
	if got := c.complete(aggregate("own", 2)); got != http.StatusOK {
		c.t.Fatalf("complete with the job's aggregate: status %d, want 200", got)
	}
	var cur RunStatus
	getJSON(c.t, fmt.Sprintf("%s/runs/%d", c.url, c.id), &cur)
	recs, _ := c.store.Campaigns()
	if cur.State != "done" || len(recs) != 1 || recs[0].Name != "own" || recs[0].Runs != 2 {
		c.t.Fatalf("after the lease holder's complete: state %q, campaigns %+v", cur.State, recs)
	}
}

// TestLeaseCompleteRejectsForeignCampaign: a lease holder's
// POST /runs/{id}/complete may store an aggregate only under its own
// job's campaign. A foreign name answers 400, stores nothing and leaves
// the job running; the lease holder's own aggregate then completes it.
func TestLeaseCompleteRejectsForeignCampaign(t *testing.T) {
	c := newCompletion(t)
	c.refused("with a foreign campaign", aggregate("other", 2))
	c.accepted()
}

// TestLeaseCompleteRequiresAggregate: a completion without an aggregate
// would end the job done with nothing stored; it answers 400 and the
// job stays running.
func TestLeaseCompleteRequiresAggregate(t *testing.T) {
	c := newCompletion(t)
	c.refused("without an aggregate", nil)
	c.accepted()
}

// TestLeaseCompleteRejectsRunCountMismatch: the aggregate must fold
// exactly the job's runs, no fewer and no more.
func TestLeaseCompleteRejectsRunCountMismatch(t *testing.T) {
	c := newCompletion(t)
	c.refused("with 1 of 2 runs", aggregate("own", 1))
	c.refused("with 3 of 2 runs", aggregate("own", 3))
	c.accepted()
}
