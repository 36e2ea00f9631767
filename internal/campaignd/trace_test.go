package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
)

// TestLeaseCarriesTraceHeaders pins the trace side of the lease
// protocol without running an engine: a traced job's lease response
// carries the Traceparent header, the span-ingest endpoint accepts the
// owner's spans for the job's trace and rejects foreign workers and
// foreign traces.
func TestLeaseCarriesTraceHeaders(t *testing.T) {
	store := results.NewMemStore()
	sink := &trace.CollectSink{}
	tracer := trace.New("serve", sink)
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(5*time.Second),
		runq.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, WithQueue(q))
	defer q.Shutdown(context.Background())
	ts := newTestServerFrom(t, srv)

	post := func(path, worker string, body any) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(runq.WorkerHeader, worker)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	st := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"traced-proto","runs":2,"seed":10}`)

	resp := post("/lease", "w1", runq.LeaseRequest{Worker: "w1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: status %d", resp.StatusCode)
	}
	var lease runq.LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		t.Fatal(err)
	}
	if lease.Job.Trace == nil {
		t.Fatal("leased job carries no TraceRef despite a traced queue")
	}
	wantTID := trace.DeriveTraceID("traced-proto", 10)
	if uint64(lease.Job.Trace.TraceID) != wantTID {
		t.Fatalf("trace ID %s, want %016x (deterministic from name+seed)", lease.Job.Trace.TraceID, wantTID)
	}
	hdr := resp.Header.Get(runq.TraceparentHeader)
	if hdr != lease.Job.Trace.Traceparent(lease.Job.Attempt) {
		t.Errorf("header %q disagrees with TraceRef.Traceparent %q", hdr, lease.Job.Trace.Traceparent(lease.Job.Attempt))
	}
	// 00-<32 hex trace-id, our ID in the low half>-<16 hex span>-01
	f := strings.Split(hdr, "-")
	if len(f) != 4 || len(f[1]) != 32 {
		t.Fatalf("lease Traceparent header %q is not 00-<32 hex>-<16 hex>-01", hdr)
	}
	gotTID, errT := strconv.ParseUint(f[1][16:], 16, 64)
	gotSpan, errS := strconv.ParseUint(f[2], 16, 64)
	if errT != nil || errS != nil || gotTID != wantTID {
		t.Fatalf("lease Traceparent header %q: trace %x, want %x", hdr, gotTID, wantTID)
	}
	if gotSpan == 0 {
		t.Error("lease span ID zero")
	}

	sp := trace.SpanData{
		TraceID: lease.Job.Trace.TraceID,
		SpanID:  trace.ID(trace.DeriveSpanID(wantTID, 1, trace.StreamWorkerJob)),
		Parent:  trace.ID(gotSpan),
		Name:    "worker-job", Service: "w1", Start: 1, Dur: 2,
	}
	spansPath := fmt.Sprintf("/runs/%d/spans", st.ID)

	if resp := post(spansPath, "w2", runq.SpansRequest{Holder: runq.Holder{Worker: "w2", Attempt: 1}, Spans: []trace.SpanData{sp}}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("foreign worker spans: status %d, want 409", resp.StatusCode)
	}
	bad := sp
	bad.TraceID++
	if resp := post(spansPath, "w1", runq.SpansRequest{Holder: runq.Holder{Worker: "w1", Attempt: 1}, Spans: []trace.SpanData{bad}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign trace spans: status %d, want 400", resp.StatusCode)
	}
	if resp := post(spansPath, "w1", runq.SpansRequest{Holder: runq.Holder{Worker: "w1", Attempt: 1}, Spans: []trace.SpanData{sp}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner spans: status %d", resp.StatusCode)
	}
	found := false
	for _, got := range sink.Spans() {
		if got.SpanID == sp.SpanID {
			found = true
			if got.Service != "w1" {
				t.Errorf("ingested span service %q, want the origin worker's %q", got.Service, "w1")
			}
		}
	}
	if !found {
		t.Error("ingested span never reached the server's sink")
	}
}

// TestLeaseSpansOutOfBoundsRefused: a forwarded span with more stages
// or attributes than a segment record holds would make the trace
// directory unreadable, since the decoder refuses the whole segment. The
// endpoint answers 400 for a batch holding one, writes none of that
// batch, and the directory still reads afterwards.
func TestLeaseSpansOutOfBoundsRefused(t *testing.T) {
	dir := t.TempDir()
	sink, err := trace.NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.New("serve", sink)
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(5*time.Second), runq.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Shutdown(context.Background())
	url := newTestServerFrom(t, New(results.NewMemStore(), WithQueue(q))).URL
	st := postRun(t, url, `{"scenario":"DS-2","mode":"smart","name":"bounded","runs":2,"seed":10}`)
	r := awaitReply(t, postLease(context.Background(), url, `{"worker":"w1"}`), 5*time.Second)
	if r.status != http.StatusOK {
		t.Fatalf("lease: status %d", r.status)
	}
	tid := r.lease.Job.Trace.TraceID
	span := func(key uint64, stages, attrs int) trace.SpanData {
		return trace.SpanData{TraceID: tid, SpanID: trace.ID(trace.DeriveSpanID(uint64(tid), key, trace.StreamEngineJob)),
			Name: "engine-job", Service: "w1", Start: 1, Dur: 2,
			Stages: make([]int64, stages), Attrs: make([]trace.Attr, attrs)}
	}
	post := func(spans ...trace.SpanData) int {
		t.Helper()
		raw, _ := json.Marshal(runq.SpansRequest{Holder: runq.Holder{Worker: "w1", Attempt: 1}, Spans: spans})
		resp, err := http.Post(fmt.Sprintf("%s/runs/%d/spans", url, st.ID), "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(span(1, 1, 0), span(2, trace.MaxStages+1, 0), span(3, 1, 0)); got != http.StatusBadRequest {
		t.Errorf("batch with a %d-stage span: status %d, want 400", trace.MaxStages+1, got)
	}
	if got := post(span(4, 0, 65)); got != http.StatusBadRequest {
		t.Errorf("span with 65 attrs: status %d, want 400", got)
	}
	if got := post(span(5, trace.MaxStages, 64)); got != http.StatusOK {
		t.Errorf("span at the bounds: status %d, want 200", got)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := trace.ReadDir(dir)
	if err != nil {
		t.Fatalf("trace directory unreadable after the refused spans: %v", err)
	}
	var workerSpans []trace.ID
	for _, sp := range spans {
		if sp.Service == "w1" {
			workerSpans = append(workerSpans, sp.SpanID)
		}
	}
	if want := span(5, 0, 0).SpanID; len(workerSpans) != 1 || workerSpans[0] != want {
		t.Errorf("worker spans in the directory %v, want only the accepted %s", workerSpans, want)
	}
}

// TestWorkerTraceContinuity is the cross-process tracing proof: a real
// runq.Worker executes a traced job against the service, and the
// server's single sink ends up holding one trace whose spans cross the
// process boundary — queue spans from the "serve" side, the worker-job
// span and one engine-job span per episode, annotated by it, from the
// worker — all under the same deterministic trace ID, with the
// lease-protocol headers present on the worker's requests.
func TestWorkerTraceContinuity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test")
	}
	store := results.NewMemStore()
	sink := &trace.CollectSink{}
	tracer := trace.New("serve", sink)
	q, err := runq.Open("", runq.WithMaxConcurrent(0), runq.WithLeaseTTL(10*time.Second),
		runq.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(store, WithQueue(q))
	defer q.Shutdown(context.Background())

	// Record the worker's lease-protocol headers on the way through.
	var mu sync.Mutex
	headers := map[string]string{} // path → traceparent, for requests naming a worker
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if wk := r.Header.Get(runq.WorkerHeader); wk != "" {
			mu.Lock()
			headers[r.URL.Path] = r.Header.Get(runq.TraceparentHeader)
			mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	st := postRun(t, ts.URL, `{"scenario":"DS-2","mode":"smart","name":"traced-remote","runs":2,"seed":300}`)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &runq.Worker{Server: ts.URL, Name: "tw1", Workers: 2, Poll: 20 * time.Millisecond}
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

	wantTID := trace.ID(trace.DeriveTraceID("traced-remote", 300))
	traces := trace.Collect(sink.Spans())
	tr := trace.Find(traces, wantTID)
	if tr == nil {
		t.Fatalf("no trace %s in the sink (have %d traces)", wantTID, len(traces))
	}
	svcs := tr.Services()
	if len(svcs) < 2 {
		t.Fatalf("trace spans one service %v; want spans from both sides of the process boundary", svcs)
	}
	names := map[string]int{}
	for _, sp := range tr.Spans {
		if sp.TraceID != wantTID {
			t.Fatalf("span %s carries trace %s, want %s", sp.SpanID, sp.TraceID, wantTID)
		}
		names[sp.Name]++
	}
	for _, want := range []string{"run", "queue-wait", "lease", "worker-job", "engine-job"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (have %v)", want, names)
		}
	}
	if names["episode"] != 0 {
		t.Errorf("trace has %d separate episode spans; episodes annotate their engine-job spans", names["episode"])
	}
	// Both episodes of the job (seeds 300 and 301) are annotated
	// engine-job spans under the worker's job span.
	workerJob := trace.ID(trace.DeriveSpanID(uint64(wantTID), 1, trace.StreamWorkerJob))
	seeds := map[int64]bool{}
	for _, sp := range tr.Spans {
		if sp.Name == "engine-job" && sp.Parent == workerJob && sp.Episode() && sp.SampledFrames > 0 && len(sp.Stages) > 0 {
			seeds[sp.Seed] = true
		}
	}
	if len(seeds) != 2 || !seeds[300] || !seeds[301] {
		t.Errorf("annotated engine-job spans under worker-job carry seeds %v, want 300 and 301", seeds)
	}
	if tr.Root == nil || tr.Root.Name != "run" {
		t.Error("root span missing or not the run span")
	}

	// The analysis layer works over the real trace: a critical path
	// from the root and a breakdown that saw the queue and the worker.
	path := trace.CriticalPath(tr)
	if len(path) < 3 || path[0].Span.Name != "run" {
		t.Errorf("critical path too shallow: %d nodes", len(path))
	}
	bd := trace.Summarize(tr)
	if bd.Exec <= 0 || bd.Episodes != 2 {
		t.Errorf("breakdown missing exec or not counting 2 episodes: %+v", bd)
	}

	// Header continuity: the worker's in-run requests carried the job's
	// traceparent.
	mu.Lock()
	defer mu.Unlock()
	if _, ok := headers["/lease"]; !ok {
		t.Error("lease request missing the worker header")
	}
	epPath := fmt.Sprintf("/runs/%d/episodes", st.ID)
	wantHdr := trace.FormatTraceparent(uint64(wantTID), trace.DeriveSpanID(uint64(wantTID), 1, trace.StreamLease))
	if got := headers[epPath]; got != wantHdr {
		t.Errorf("episode stream traceparent %q, want %q", got, wantHdr)
	}
}
