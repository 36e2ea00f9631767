package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/runq"
)

// FuzzRunRequest posts arbitrary bodies to POST /runs on a server whose
// queue is journaled in a temporary directory and executes nothing
// (runq.WithMaxConcurrent(0)). Every body must be answered 202, 400 or
// 413 without a panic; only a 202 queues a job, that job's scenario
// must resolve (Validate's promise that a journaled job is executable,
// which for a name rests on scenario.Named), and it must survive a
// close and reopen of the queue with a Request that marshals to the
// same bytes. The seed corpus in testdata/fuzz/FuzzRunRequest holds the
// launch, inline-spec, inline-policy and request-bounds tests' bodies,
// one with trailing data, one with an unknown field, and two names the
// catalog does not hold: DS-9 and the wrong-case ds-2.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"scenario":"DS-2","mode":"smart","name":"api-ds2","runs":3,"seed":300}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		q, err := runq.Open(dir, runq.WithMaxConcurrent(0))
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		New(results.NewMemStore(), WithQueue(q)).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/runs", bytes.NewReader(body)))
		jobs := q.Jobs()
		if err := q.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		switch rec.Code {
		case http.StatusAccepted:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			if len(jobs) != 0 {
				t.Fatalf("status %d, yet %d jobs queued", rec.Code, len(jobs))
			}
			return
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if len(jobs) != 1 {
			t.Fatalf("202 queued %d jobs, want 1", len(jobs))
		}
		if _, err := jobs[0].Request.Source(); err != nil {
			t.Fatalf("202 queued a job whose scenario does not resolve: %v", err)
		}
		want, err := json.Marshal(jobs[0].Request)
		if err != nil {
			t.Fatal(err)
		}
		q, err = runq.Open(dir, runq.WithMaxConcurrent(0))
		if err != nil {
			t.Fatalf("reopen after %s: %v", want, err)
		}
		defer q.Shutdown(context.Background())
		j, ok := q.Get(jobs[0].ID)
		if !ok {
			t.Fatalf("job %d lost across a reopen", jobs[0].ID)
		}
		got, err := json.Marshal(j.Request)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replayed request\n%s\ndiffers from the accepted one\n%s", got, want)
		}
	})
}
