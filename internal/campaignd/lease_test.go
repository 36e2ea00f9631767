package campaignd

// POST /lease as a long poll. A request parks on the server only once
// its body has arrived, so the tests give it parkDelay to get there
// before the event that should wake it; if it is late, it takes the job
// at once instead and every assertion below still holds.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
	"github.com/robotack/robotack/internal/scenario"
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
	raw, _ := json.Marshal(runq.FailRequest{Holder: runq.Holder{Worker: "w1", Attempt: 1}, Error: "worker shut down", Requeue: true})
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

// TestLeaseStaleAttemptFenced: a request written for a past attempt is
// refused even when the same worker holds the current one. w1's
// attempt 1 expires under a 200 ms lease, w1 leases attempt 2, and a
// POST /fail for attempt 1 answers 409 and leaves attempt 2 running,
// which then completes the run. A request with no attempt is refused
// the same way.
func TestLeaseStaleAttemptFenced(t *testing.T) {
	q, url := remoteOnly(t, 200*time.Millisecond)
	st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"fenced","runs":2,"seed":10}`)
	if r := awaitReply(t, postLease(context.Background(), url, `{"worker":"w1"}`), 5*time.Second); r.status != http.StatusOK || r.lease.Job.Attempt != 1 {
		t.Fatalf("first lease: status %d, %+v", r.status, r.lease.Job)
	}
	// Without a heartbeat attempt 1 expires, and the parked request
	// takes the requeued job.
	r := awaitReply(t, postLease(context.Background(), url, `{"worker":"w1","wait_ms":10000}`), 10*time.Second)
	if r.status != http.StatusOK || r.lease.Job.ID != st.ID || r.lease.Job.Attempt != 2 {
		t.Fatalf("second lease: status %d, %+v", r.status, r.lease.Job)
	}
	c := &completion{t: t, url: url, id: st.ID}
	attempt2 := runq.Holder{Worker: "w1", Attempt: 2}
	stop := c.keepAlive(attempt2)
	defer stop()

	stale := runq.FailRequest{Holder: runq.Holder{Worker: "w1", Attempt: 1}, Error: "attempt 1 gave up"}
	if got := c.post("fail", stale); got != http.StatusConflict {
		t.Fatalf("fail for attempt 1 while attempt 2 runs: status %d, want 409", got)
	}
	if got := c.post("fail", runq.FailRequest{Holder: runq.Holder{Worker: "w1"}, Error: "no attempt"}); got != http.StatusConflict {
		t.Fatalf("fail without an attempt: status %d, want 409", got)
	}
	if got := c.post("episodes", runq.EpisodesRequest{Holder: attempt2, Episodes: []results.EpisodeRecord{
		episode("fenced", 0, 10), episode("fenced", 1, 11)}}); got != http.StatusOK {
		t.Fatalf("attempt 2's episodes: status %d", got)
	}
	if got := c.post("complete", runq.CompleteRequest{Holder: attempt2}); got != http.StatusOK {
		t.Fatalf("attempt 2's completion: status %d", got)
	}
	if j, _ := q.Get(st.ID); j.State != runq.StateDone || j.Attempt != 2 {
		t.Fatalf("run ended %s at attempt %d (%s), want done at attempt 2", j.State, j.Attempt, j.Error)
	}
}

// TestHeartbeatCannotChangeTotal: a job's total is its request's runs.
// A heartbeat that reports a total of its own changes nothing, done
// never passes the total, and an episode beyond it is still refused.
func TestHeartbeatCannotChangeTotal(t *testing.T) {
	c := newCompletion(t)
	if got := c.postRaw("heartbeat", `{"worker":"w1","attempt":1,"done":1,"total":1000}`); got != http.StatusOK {
		t.Fatalf("heartbeat: status %d", got)
	}
	if cur := c.status(); cur.Done != 1 || cur.Total != 2 {
		t.Fatalf("after a heartbeat claiming 1/1000: %d/%d, want 1/2", cur.Done, cur.Total)
	}
	if got := c.post("episodes", runq.EpisodesRequest{Holder: w1, Episodes: []results.EpisodeRecord{episode("own", 999, 1009)}}); got != http.StatusBadRequest {
		t.Fatalf("episode 999 of a 2-run job: status %d, want 400", got)
	}
	if eps, _ := c.store.Episodes("own"); len(eps) != 0 {
		t.Fatalf("refused episode stored: %+v", eps)
	}
	if got := c.post("heartbeat", runq.HeartbeatRequest{Holder: w1, Done: 1000}); got != http.StatusOK {
		t.Fatalf("heartbeat: status %d", got)
	}
	if cur := c.status(); cur.Done != 2 || cur.Total != 2 {
		t.Fatalf("after a heartbeat claiming 1000 done: %d/%d, want 2/2", cur.Done, cur.Total)
	}
}

// completion is a 2-run DS-2 job named "own" (seed 10), leased to w1
// at attempt 1 on a remote-only queue, for the POST
// /runs/{id}/complete tests.
type completion struct {
	t     *testing.T
	url   string
	id    int
	store *results.MemStore
}

// w1 holds a completion's lease.
var w1 = runq.Holder{Worker: "w1", Attempt: 1}

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

// episode is a stored smart DS-2 episode of campaign name.
func episode(name string, index int, seed int64) results.EpisodeRecord {
	return results.EpisodeRecord{V: results.Version, Campaign: name, Index: index, Seed: seed,
		Scenario: "DS-2", Mode: core.ModeSmart, Launched: true, EB: index == 0, Frames: 50}
}

// post sends body as JSON to the job's route POST /runs/{id}/{verb} and
// returns the status.
func (c *completion) post(verb string, body any) int {
	c.t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	return c.postRaw(verb, string(raw))
}

func (c *completion) postRaw(verb, body string) int {
	c.t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/runs/%d/%s", c.url, c.id, verb), "application/json", bytes.NewBufferString(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (c *completion) status() RunStatus {
	c.t.Helper()
	var cur RunStatus
	getJSON(c.t, fmt.Sprintf("%s/runs/%d", c.url, c.id), &cur)
	return cur
}

// keepAlive heartbeats h's lease in the background until the returned
// func is called.
func (c *completion) keepAlive(h runq.Holder) (stop func()) {
	done := make(chan struct{})
	stopped := make(chan struct{})
	raw, _ := json.Marshal(runq.HeartbeatRequest{Holder: h})
	go func() {
		defer close(stopped)
		for {
			if resp, err := http.Post(fmt.Sprintf("%s/runs/%d/heartbeat", c.url, c.id), "application/json", bytes.NewReader(raw)); err == nil {
				resp.Body.Close()
			}
			select {
			case <-done:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	return func() {
		close(done)
		<-stopped
	}
}

// refused posts w1's completion, which must answer 409, store no
// aggregate and leave the job running under w1's lease.
func (c *completion) refused(what string) {
	c.t.Helper()
	if got := c.post("complete", runq.CompleteRequest{Holder: w1}); got != http.StatusConflict {
		c.t.Fatalf("complete %s: status %d, want 409", what, got)
	}
	if recs, _ := c.store.Campaigns(); len(recs) != 0 {
		c.t.Fatalf("complete %s stored %d campaigns", what, len(recs))
	}
	if cur := c.status(); cur.State != "running" || cur.Worker != "w1" || cur.Attempt != 1 {
		c.t.Fatalf("run after a refused complete %s = %+v, want running on w1", what, cur)
	}
}

// accepted posts w1's completion, which folds the job's stored
// episodes into the stored aggregate and completes the job.
func (c *completion) accepted() {
	c.t.Helper()
	if got := c.post("complete", runq.CompleteRequest{Holder: w1}); got != http.StatusOK {
		c.t.Fatalf("complete with every episode stored: status %d, want 200", got)
	}
	eps, _ := c.store.Episodes("own")
	want := results.Aggregate(results.NewCampaign("own", "DS-2", core.ModeSmart, true, 10), eps)
	recs, _ := c.store.Campaigns()
	if cur := c.status(); cur.State != "done" || len(recs) != 1 || !reflect.DeepEqual(recs[0], want) {
		c.t.Fatalf("after the lease holder's complete: state %q, campaigns %+v, want %+v", cur.State, recs, want)
	}
}

// storeEpisodes appends eps to the server's store directly, as any
// writer of the job's record name leaves them: a worker's upload, or an
// earlier run under the same name, whose seeds need not be the job's.
// The upload itself refuses a foreign seed (TestLeaseUploadRefusedWhole).
func (c *completion) storeEpisodes(eps ...results.EpisodeRecord) {
	c.t.Helper()
	for _, ep := range eps {
		if err := c.store.Append(ep); err != nil {
			c.t.Fatal(err)
		}
	}
}

// TestCompletionRefusedWhileEpisodesMissing: the server folds the
// job's aggregate from its stored episodes, so a completion before all
// of them are stored answers 409, stores nothing and leaves the job
// running; once the last one lands the same completion succeeds.
func TestCompletionRefusedWhileEpisodesMissing(t *testing.T) {
	c := newCompletion(t)
	c.refused("with no episode stored")
	c.storeEpisodes(episode("own", 1, 11))
	c.refused("with episode 0 missing")
	c.storeEpisodes(episode("own", 0, 10))
	c.accepted()
}

// TestCompletionRefusesForeignSeed: an episode stored under the job's
// campaign and index but run with another seed than the job derives
// for that index is not the job's episode; completion waits until the
// job's own episode replaces it.
func TestCompletionRefusesForeignSeed(t *testing.T) {
	c := newCompletion(t)
	c.storeEpisodes(episode("own", 0, 10), episode("own", 1, 99))
	c.refused("with episode 1 run on seed 99")
	c.storeEpisodes(episode("own", 1, 11))
	c.accepted()
}

// TestLeaseUploadRefusedWhole: POST /runs/{id}/episodes checks every
// record of a batch before it appends any. A batch holding an episode
// the job does not own — run on another seed than the job derives for
// its index, a record newer than this build reads, another campaign's
// record or a negative index — answers 400 and stores nothing; the job
// stays running under w1's lease, and the job's own episodes then
// complete it.
func TestLeaseUploadRefusedWhole(t *testing.T) {
	newer := episode("own", 1, 11)
	newer.V = results.Version + 1
	for _, tc := range []struct {
		name string
		bad  results.EpisodeRecord
	}{
		{"foreign-seed", episode("own", 1, 99)},
		{"newer-record", newer},
		{"other-campaign", episode("other", 1, 11)},
		{"negative-index", episode("own", -1, 9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCompletion(t)
			if got := c.post("episodes", runq.EpisodesRequest{Holder: w1, Episodes: []results.EpisodeRecord{episode("own", 0, 10), tc.bad}}); got != http.StatusBadRequest {
				t.Fatalf("batch with a %s: status %d, want 400", tc.name, got)
			}
			if eps, _ := c.store.Episodes("own"); len(eps) != 0 {
				t.Fatalf("refused batch stored %d episodes", len(eps))
			}
			if cur := c.status(); cur.State != "running" || cur.Worker != "w1" || cur.Attempt != 1 {
				t.Fatalf("run after a refused batch = %+v, want running on w1", cur)
			}
			if got := c.post("episodes", runq.EpisodesRequest{Holder: w1, Episodes: []results.EpisodeRecord{
				episode("own", 0, 10), episode("own", 1, 11)}}); got != http.StatusOK {
				t.Fatalf("the job's own episodes: status %d", got)
			}
			c.accepted()
		})
	}
}

// dropFirstEpisodes is a worker transport that drops the first POST
// /runs/{id}/episodes: the request never reaches the server, and the
// worker sees a transport error.
type dropFirstEpisodes struct{ dropped atomic.Bool }

func (d *dropFirstEpisodes) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/episodes") && d.dropped.CompareAndSwap(false, true) {
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, errors.New("connection reset by the test transport")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWorkerDroppedUploadRequeues: an episodes post that gets no answer
// hands the job back instead of failing it. The 16-run job's only
// batch is dropped, attempt 2 runs it again, and the stored aggregate
// equals an in-process run of the same request. Attempt 2 resumes from
// the store, so it also ends done when an earlier run under the same
// record name left episode 5 there on another seed: the job does not
// own that episode, so the resumed attempt re-runs it.
func TestWorkerDroppedUploadRequeues(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stale []results.EpisodeRecord
	}{
		{"clean-store", nil},
		{"foreign-seed-stored", []results.EpisodeRecord{episode("dropped", 5, 99)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(5*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			defer q.Shutdown(context.Background())
			store := results.NewMemStore()
			for _, ep := range tc.stale {
				if err := store.Append(ep); err != nil {
					t.Fatal(err)
				}
			}
			url := newTestServerFrom(t, New(store, WithQueue(q))).URL
			st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"dropped","runs":16,"seed":300}`)

			ctx, stop := context.WithTimeout(context.Background(), 2*time.Minute)
			defer stop()
			w := &runq.Worker{Server: url, Name: "w1", Workers: 2, Poll: 20 * time.Millisecond,
				Client: &http.Client{Transport: &dropFirstEpisodes{}}}
			workerDone := make(chan struct{})
			go func() {
				defer close(workerDone)
				_ = w.Run(ctx)
			}()
			final := waitRun(t, url, st.ID, 2*time.Minute)
			stop()
			<-workerDone
			if final.State != "done" || final.Attempt != 2 {
				t.Fatalf("run with a dropped upload ended %q at attempt %d (%s), want done at attempt 2", final.State, final.Attempt, final.Error)
			}

			local := results.NewMemStore()
			c := experiment.Campaign{Name: "dropped", Scenario: scenario.DS2, Mode: core.ModeSmart, ExpectCrashes: true}
			if _, err := experiment.RunCampaignOn(engine.New(), c, 16, 300, nil, experiment.WithSink(local)); err != nil {
				t.Fatal(err)
			}
			diffs, err := results.Diff(store, local)
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) != 1 {
				t.Fatalf("diff covers %d campaigns, want 1", len(diffs))
			}
			if d := diffs[0]; d.A == nil || d.B == nil || !reflect.DeepEqual(d.A, d.B) {
				t.Errorf("served aggregate differs from an in-process run:\nserved %+v\nlocal  %+v", d.A, d.B)
			}
		})
	}
}
