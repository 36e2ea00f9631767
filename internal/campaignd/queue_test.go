package campaignd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// stepExec is a hand-cranked executor: every episode waits for one
// send on step, so tests control exactly when progress happens.
type stepExec struct {
	step    chan struct{}
	started chan int
	mu      sync.Mutex
	cur     int
	max     int
}

func newStepExec() *stepExec {
	return &stepExec{step: make(chan struct{}), started: make(chan int, 16)}
}

func (e *stepExec) Execute(ctx context.Context, job runq.Job, progress func(done, total int)) error {
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
	e.started <- job.ID
	for i := 1; i <= job.Request.Runs; i++ {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-e.step:
		}
		progress(i, job.Request.Runs)
	}
	return nil
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Name string
	Data runq.Event
}

// readSSE consumes the stream until a terminal event (or EOF),
// returning every event seen.
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var out []sseEvent
	var name string
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev runq.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			out = append(out, sseEvent{Name: name, Data: ev})
			if ev.State.Terminal() {
				return out
			}
		}
	}
	return out
}

func postRun(t *testing.T, base, body string) RunStatus {
	t.Helper()
	resp, err := http.Post(base+"/runs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs: status %d (%+v)", resp.StatusCode, st)
	}
	return st
}

// TestServeSSEOrdering: the event stream reports monotonically
// nondecreasing progress and ends with exactly one terminal "done"
// event; a late subscriber gets the terminal event immediately.
func TestServeSSEOrdering(t *testing.T) {
	exec := newStepExec()
	ts := newTestServer(t, results.NewMemStore(), WithExecutor(exec))

	st := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"sse","runs":3,"seed":1}`)
	<-exec.started

	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/events", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	done := make(chan []sseEvent, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		done <- readSSE(t, sc)
	}()
	for i := 0; i < 3; i++ {
		exec.step <- struct{}{}
	}
	var events []sseEvent
	select {
	case events = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never delivered a terminal event")
	}

	if len(events) < 2 {
		t.Fatalf("events = %+v, want at least a snapshot and a terminal", events)
	}
	last := events[len(events)-1]
	if last.Name != "done" || last.Data.State != runq.StateDone || last.Data.Done != 3 {
		t.Fatalf("terminal event = %+v, want done 3/3", last)
	}
	prev := -1
	for i, ev := range events {
		if ev.Data.Done < prev {
			t.Errorf("event %d: done went backwards (%d after %d)", i, ev.Data.Done, prev)
		}
		prev = ev.Data.Done
		if i < len(events)-1 {
			if ev.Name != "progress" {
				t.Errorf("event %d named %q, want progress", i, ev.Name)
			}
			if ev.Data.State.Terminal() {
				t.Errorf("event %d: terminal state %q before the last event", i, ev.Data.State)
			}
		}
	}

	// A subscriber after completion sees one immediate terminal event.
	resp2, err := http.Get(fmt.Sprintf("%s/runs/%d/events", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	late := readSSE(t, bufio.NewScanner(resp2.Body))
	if len(late) != 1 || late[0].Name != "done" {
		t.Errorf("late subscription = %+v, want a single done event", late)
	}

	if resp, err := http.Get(ts.URL + "/runs/99/events"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("events for unknown run: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestServeSSESubscriberCap: a run takes runq.MaxSubscribersPerRun
// event streams; one more answers 429 and keeps no subscription, and
// once a stream hangs up, exactly one more fits again.
func TestServeSSESubscriberCap(t *testing.T) {
	_, url := remoteOnly(t, 30*time.Second) // the run stays queued
	st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"watched","runs":2,"seed":1}`)
	events := fmt.Sprintf("%s/runs/%d/events", url, st.ID)
	open := func() *http.Response {
		t.Helper()
		resp, err := http.Get(events)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	var streams []*http.Response
	for i := 0; i < runq.MaxSubscribersPerRun; i++ {
		resp := open()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream %d: status %d, want 200", i, resp.StatusCode)
		}
		streams = append(streams, resp)
	}
	for i := 0; i < 3; i++ {
		if resp := open(); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("stream past the cap: status %d, want 429", resp.StatusCode)
		}
	}
	// The server unsubscribes a stream once it sees the hang-up.
	streams[0].Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := open()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("stream after a hang-up: status %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if resp := open(); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream after one hang-up: status %d, want 429", resp.StatusCode)
	}
}

// TestServeSSECancelMidRun: DELETE /runs/{id} mid-run terminates the
// event stream with a "cancelled" event and the job's engine context.
func TestServeSSECancelMidRun(t *testing.T) {
	exec := newStepExec()
	ts := newTestServer(t, results.NewMemStore(), WithExecutor(exec))

	st := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"sse-cancel","runs":5,"seed":1}`)
	<-exec.started

	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/events", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		done <- readSSE(t, sc)
	}()
	exec.step <- struct{}{} // one episode lands, then the client cancels

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/runs/%d", ts.URL, st.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled RunStatus
	if err := json.NewDecoder(dresp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || cancelled.State != "cancelled" {
		t.Fatalf("DELETE: status %d, state %q", dresp.StatusCode, cancelled.State)
	}

	select {
	case events := <-done:
		last := events[len(events)-1]
		if last.Name != "cancelled" || last.Data.State != runq.StateCancelled {
			t.Fatalf("terminal event = %+v, want cancelled", last)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never saw the cancellation")
	}
	if st := waitRun(t, ts.URL, st.ID, 5*time.Second); st.State != "cancelled" {
		t.Errorf("final state = %q, want cancelled", st.State)
	}
}

// readFirstSSE returns the first event on a stream — the snapshot sent
// on subscribe.
func readFirstSSE(t *testing.T, body *bufio.Scanner) runq.Event {
	t.Helper()
	for body.Scan() {
		line := body.Text()
		if strings.HasPrefix(line, "data: ") {
			var ev runq.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			return ev
		}
	}
	t.Fatal("SSE stream ended before any event")
	return runq.Event{}
}

// TestServeSSEDerivedTelemetry: progress events carry derived
// telemetry — a queued run's 1-based position behind the busy local
// slot, and a running job's episodes/sec estimate once progress
// reports land. Both are computed from live queue state, never
// journaled.
func TestServeSSEDerivedTelemetry(t *testing.T) {
	exec := newStepExec()
	ts := newTestServer(t, results.NewMemStore(), WithExecutor(exec))

	st1 := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"telemetry-a","runs":3,"seed":1}`)
	<-exec.started // the single local slot is now busy

	st2 := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"telemetry-b","runs":2,"seed":2}`)
	resp2, err := http.Get(fmt.Sprintf("%s/runs/%d/events", ts.URL, st2.ID))
	if err != nil {
		t.Fatal(err)
	}
	snap := readFirstSSE(t, bufio.NewScanner(resp2.Body))
	resp2.Body.Close()
	if snap.State != runq.StateQueued {
		t.Fatalf("second run state = %v, want queued behind the busy slot", snap.State)
	}
	if snap.QueuePos != 1 {
		t.Errorf("queued run's queue_pos = %d, want 1 (first in line)", snap.QueuePos)
	}

	resp1, err := http.Get(fmt.Sprintf("%s/runs/%d/events", ts.URL, st1.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	done := make(chan []sseEvent, 1)
	go func() { done <- readSSE(t, bufio.NewScanner(resp1.Body)) }()
	for i := 0; i < 3; i++ {
		// Space the episodes out so the rate estimator sees measurable
		// inter-report gaps.
		time.Sleep(2 * time.Millisecond)
		exec.step <- struct{}{}
	}

	select {
	case events := <-done:
		sawRate := false
		for _, ev := range events {
			if ev.Data.EpsPerSec > 0 {
				sawRate = true
				if ev.Data.State != runq.StateRunning {
					t.Errorf("eps_per_sec on a %v event; the estimate is for running jobs", ev.Data.State)
				}
			}
		}
		if !sawRate {
			t.Errorf("no progress event carried eps_per_sec > 0; events: %+v", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never finished the first run")
	}
}

// TestWorkerProtocol drives the lease/heartbeat/episodes/complete/fail
// endpoints directly, as a remote worker would.
func TestWorkerProtocol(t *testing.T) {
	store := results.NewMemStore()
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, WithQueue(q))
	defer q.Shutdown(context.Background())
	ts := newTestServerFrom(t, srv)

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}

	st := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"proto","runs":2,"seed":10}`)

	// The dispatcher's reserved name is not leasable.
	if resp, _ := post("/lease", runq.LeaseRequest{Worker: "local"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reserved-name lease: status %d, want 400", resp.StatusCode)
	}

	// Lease the job.
	resp, raw := post("/lease", runq.LeaseRequest{Worker: "w1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: status %d", resp.StatusCode)
	}
	var lease runq.LeaseResponse
	if err := json.Unmarshal(raw, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Job.ID != st.ID || lease.Job.Attempt != 1 || lease.LeaseTTLMillis != 5000 {
		t.Fatalf("lease = %+v", lease)
	}

	// Nothing else is queued.
	if resp, _ := post("/lease", runq.LeaseRequest{Worker: "w2"}); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("empty lease: status %d, want 204", resp.StatusCode)
	}

	// Foreign heartbeats conflict; the owner's succeed and show up in
	// the run status.
	w1 := runq.Holder{Worker: "w1", Attempt: 1}
	if resp, _ := post(fmt.Sprintf("/runs/%d/heartbeat", st.ID), runq.HeartbeatRequest{Holder: runq.Holder{Worker: "w2", Attempt: 1}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign heartbeat: status %d, want 409", resp.StatusCode)
	}
	if resp, _ := post(fmt.Sprintf("/runs/%d/heartbeat", st.ID), runq.HeartbeatRequest{Holder: w1, Done: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: status %d", resp.StatusCode)
	}
	var cur RunStatus
	getJSON(t, fmt.Sprintf("%s/runs/%d", ts.URL, st.ID), &cur)
	if cur.State != "running" || cur.Done != 1 || cur.Worker != "w1" {
		t.Fatalf("status after heartbeat = %+v", cur)
	}

	// Stream two episodes into the served store.
	eps := []results.EpisodeRecord{
		{V: results.Version, Campaign: "proto", Index: 0, Seed: 10, Scenario: "DS-2", Mode: core.ModeSmart, Launched: true, EB: true, Frames: 50},
		{V: results.Version, Campaign: "proto", Index: 1, Seed: 11, Scenario: "DS-2", Mode: core.ModeSmart, Launched: true, Frames: 50},
	}
	if resp, _ := post(fmt.Sprintf("/runs/%d/episodes", st.ID), runq.EpisodesRequest{Holder: w1, Episodes: eps}); resp.StatusCode != http.StatusOK {
		t.Fatalf("episodes: status %d", resp.StatusCode)
	}
	stored, err := store.Episodes("proto")
	if err != nil || len(stored) != 2 {
		t.Fatalf("stored episodes = %d (%v), want 2", len(stored), err)
	}

	// Complete: the server folds the stored episodes.
	if resp, _ := post(fmt.Sprintf("/runs/%d/complete", st.ID), runq.CompleteRequest{Holder: w1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: status %d", resp.StatusCode)
	}
	getJSON(t, fmt.Sprintf("%s/runs/%d", ts.URL, st.ID), &cur)
	if cur.State != "done" {
		t.Fatalf("state after complete = %q", cur.State)
	}
	var rec results.CampaignRecord
	getJSON(t, ts.URL+"/campaigns/proto", &rec)
	if rec.Runs != 2 || rec.EBs != 1 {
		t.Fatalf("served aggregate = %+v", rec)
	}
	if resp, _ := post(fmt.Sprintf("/runs/%d/heartbeat", st.ID), runq.HeartbeatRequest{Holder: w1}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-completion heartbeat: status %d, want 409", resp.StatusCode)
	}

	// A second job, handed back by a shutting-down worker, requeues
	// and re-leases with resume.
	st2 := postRun(t, ts.URL, `{"scenario":"DS-1","mode":"random","name":"handback","runs":2,"seed":20}`)
	if resp, _ := post("/lease", runq.LeaseRequest{Worker: "w1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("lease 2: status %d", resp.StatusCode)
	}
	if resp, _ := post(fmt.Sprintf("/runs/%d/fail", st2.ID), runq.FailRequest{Holder: w1, Error: "worker shut down", Requeue: true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("fail-requeue: status %d", resp.StatusCode)
	}
	getJSON(t, fmt.Sprintf("%s/runs/%d", ts.URL, st2.ID), &cur)
	if cur.State != "queued" {
		t.Fatalf("state after hand-back = %q, want queued", cur.State)
	}
	resp, raw = post("/lease", runq.LeaseRequest{Worker: "w2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-lease: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &lease); err != nil {
		t.Fatal(err)
	}
	if lease.Job.Attempt != 2 || !lease.Job.Request.Resume {
		t.Fatalf("re-lease = %+v, want attempt 2 with resume", lease.Job)
	}
}

// newTestServerFrom wraps an already-constructed Server in httptest.
func newTestServerFrom(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestWorkerEndToEnd runs a real runq.Worker against the service: the
// job executes on the worker's engine, episodes stream back into the
// served store, and the aggregate is bit-identical to a local run.
func TestWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	store := results.NewMemStore()
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, WithQueue(q))
	defer q.Shutdown(context.Background())
	ts := newTestServerFrom(t, srv)

	st := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"remote-ds2","runs":4,"seed":300}`)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &runq.Worker{Server: ts.URL, Name: "tw1", Workers: 4, Poll: 20 * time.Millisecond}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		_ = w.Run(ctx)
	}()

	final := waitRun(t, ts.URL, st.ID, 2*time.Minute)
	if final.State != "done" {
		t.Fatalf("remote run finished %q: %s", final.State, final.Error)
	}
	cancel()
	<-workerDone

	eps, err := store.Episodes("remote-ds2")
	if err != nil || len(eps) != 4 {
		t.Fatalf("served store has %d episodes (%v), want 4", len(eps), err)
	}

	// A local run of the same campaign produces the identical record.
	local := results.NewMemStore()
	c := experiment.Campaign{Name: "remote-ds2", Scenario: scenario.DS2, Mode: core.ModeSmart, ExpectCrashes: true}
	if _, err := experiment.RunCampaignOn(engine.New(), c, 4, 300, nil, experiment.WithSink(local)); err != nil {
		t.Fatal(err)
	}
	want, _ := local.Campaigns()
	got, _ := store.Campaigns()
	rawWant, _ := json.Marshal(want)
	rawGot, _ := json.Marshal(got)
	if string(rawWant) != string(rawGot) {
		t.Errorf("remote aggregate diverged from local run:\nlocal:  %s\nremote: %s", rawWant, rawGot)
	}
}

// TestServeInlineSpecAndGenerate: POST /runs accepts an inline
// scenegen spec and generator parameters, and both execute for real.
func TestServeInlineSpecAndGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	store := results.NewMemStore()
	ts := newTestServer(t, store, WithWorkers(4))

	// Inline spec: a registered spec's JSON resubmitted under a new name.
	ds1, ok := scenegen.Lookup("DS-1")
	if !ok {
		t.Fatal("DS-1 not registered")
	}
	spec := *ds1
	spec.Name = "inline-ds1"
	body, err := json.Marshal(map[string]any{
		"spec": &spec, "mode": "golden", "runs": 2, "seed": 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := postRun(t, ts.URL, string(body))
	// Unnamed inline sources get a job-unique record name, so two
	// unnamed sweeps can never clobber each other's records.
	if st.Scenario != "inline-ds1" || st.Name != "inline-ds1-golden-job1" {
		t.Fatalf("inline-spec status = %+v", st)
	}
	if final := waitRun(t, ts.URL, st.ID, 2*time.Minute); final.State != "done" {
		t.Fatalf("inline-spec run finished %q: %s", final.State, final.Error)
	}
	if eps, err := store.Episodes("inline-ds1-golden-job1"); err != nil || len(eps) != 2 {
		t.Fatalf("inline-spec episodes = %d (%v), want 2", len(eps), err)
	}

	// Generator parameters: {} sweeps the default space.
	st2 := postRun(t, ts.URL, `{"generate":{"max_extras":2},"mode":"golden","name":"gen-golden","runs":2,"seed":11}`)
	if st2.Scenario != "generated" {
		t.Fatalf("generate status = %+v", st2)
	}
	if final := waitRun(t, ts.URL, st2.ID, 2*time.Minute); final.State != "done" {
		t.Fatalf("generate run finished %q: %s", final.State, final.Error)
	}
	if eps, err := store.Episodes("gen-golden"); err != nil || len(eps) != 2 {
		t.Fatalf("generate episodes = %d (%v), want 2", len(eps), err)
	}
}

// TestServeRejectsOversizedScenarios: an inline spec or generator space
// beyond scenegen's caps (MaxActors, MaxDuration), or a run count
// beyond runq.MaxRuns, answers 400 and queues nothing — on a durable
// queue, nothing reaches the journal, so a restart cannot requeue it.
func TestServeRejectsOversizedScenarios(t *testing.T) {
	dir := t.TempDir()
	q, err := runq.Open(dir, runq.WithMaxConcurrent(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Shutdown(context.Background())
	ts := newTestServerFrom(t, New(results.NewMemStore(), WithQueue(q)))

	specBody := func(edit func(*scenegen.Spec)) string {
		spec := scenegen.DS5Spec()
		spec.Name = "huge"
		edit(spec)
		raw, err := json.Marshal(map[string]any{"spec": spec, "mode": "golden", "runs": 2, "seed": 1})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	for name, body := range map[string]string{
		"count 1e9":        specBody(func(s *scenegen.Spec) { s.Actors[1].Count = 1_000_000_000 }),
		"count_extra 1e9":  specBody(func(s *scenegen.Spec) { s.Actors[1].CountExtra = 1_000_000_000 }),
		"65 actors":        specBody(func(s *scenegen.Spec) { s.Actors[1].Count = 59 }), // 1 + (59+2) + 2 + 1
		"duration 1e9 s":   specBody(func(s *scenegen.Spec) { s.Duration = 1e9 }),
		"max_extras 1e9":   `{"generate":{"max_extras":1000000000},"mode":"golden","runs":2,"seed":1}`,
		"max_extras 64":    `{"generate":{"max_extras":64},"mode":"golden","runs":2,"seed":1}`,
		"duration max 601": `{"generate":{"duration":{"min":20,"max":601}},"mode":"golden","runs":2,"seed":1}`,
		"runs MaxRuns+1":   fmt.Sprintf(`{"scenario":"DS-2","mode":"smart","runs":%d,"seed":1}`, runq.MaxRuns+1),
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	var runs []RunStatus
	getJSON(t, ts.URL+"/runs", &runs)
	if len(runs) != 0 {
		t.Fatalf("rejected requests queued %d runs", len(runs))
	}
	if fi, err := os.Stat(filepath.Join(dir, "queue.jsonl")); err != nil || fi.Size() != 0 {
		t.Fatalf("journal after rejected requests: %v, %v", fi, err)
	}
}

// TestServeRequestBounds: a run of exactly runq.MaxRuns episodes is
// accepted (the queue is remote-only, so nothing executes it), and a
// body beyond the one 1 MiB limit answers 413 on every route and
// queues, appends or completes nothing.
func TestServeRequestBounds(t *testing.T) {
	store := results.NewMemStore()
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Shutdown(context.Background())
	ts := newTestServerFrom(t, New(store, WithQueue(q)))

	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	st := postRun(t, ts.URL, fmt.Sprintf(`{"scenario":"DS-2","mode":"smart","name":"max","runs":%d,"seed":1}`, runq.MaxRuns))
	if st.Total != runq.MaxRuns {
		t.Fatalf("accepted run total %d, want %d", st.Total, runq.MaxRuns)
	}

	name := strings.Repeat("x", maxBodyBytes)
	if got := post("/runs", []byte(`{"scenario":"DS-2","mode":"smart","runs":2,"seed":1,"name":"`+name+`"}`)); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /runs: status %d, want 413", got)
	}
	var runs []RunStatus
	getJSON(t, ts.URL+"/runs", &runs)
	if len(runs) != 1 {
		t.Fatalf("queue holds %d runs after the oversized request, want 1", len(runs))
	}

	lease, _ := json.Marshal(runq.LeaseRequest{Worker: "w1"})
	if got := post("/lease", lease); got != http.StatusOK {
		t.Fatalf("lease: status %d", got)
	}
	// A batch of valid episodes for the leased job, too many for one body.
	w1 := runq.Holder{Worker: "w1", Attempt: 1}
	batch := runq.EpisodesRequest{Holder: w1}
	for i := 0; i < 8192; i++ {
		batch.Episodes = append(batch.Episodes, results.EpisodeRecord{Campaign: "max", Index: i, Scenario: "DS-2", Mode: core.ModeSmart})
	}
	raw, _ := json.Marshal(batch)
	if len(raw) <= maxBodyBytes {
		t.Fatalf("episode batch is %d bytes, not beyond the %d-byte limit", len(raw), maxBodyBytes)
	}
	if got := post(fmt.Sprintf("/runs/%d/episodes", st.ID), raw); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized episode batch: status %d, want 413", got)
	}
	if eps, _ := store.Episodes("max"); len(eps) != 0 {
		t.Fatalf("oversized batch appended %d episodes", len(eps))
	}

	// A completion carries no aggregate, so it has the same limit.
	raw = []byte(`{"worker":"w1","attempt":1,"padding":"` + name + `"}`)
	if got := post(fmt.Sprintf("/runs/%d/complete", st.ID), raw); got != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized completion: status %d, want 413", got)
	}
	if j, _ := q.Get(st.ID); j.State != runq.StateRunning {
		t.Fatalf("job state %q after an oversized completion, want running", j.State)
	}
}
