package runq

// Internal test: drives Worker.Run against a flaky httptest server and
// observes the injected sleep/jitter hooks, which the external suite
// (queue_test.go) cannot reach.

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakyServer is a minimal lease endpoint: the first failLeases lease
// attempts return 500, the next hands out one tiny smart-mode job, and
// the rest 204. Heartbeats, episode appends and completion always
// succeed.
type flakyServer struct {
	failLeases int

	mu        sync.Mutex
	leases    int
	completed bool
}

func (s *flakyServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.leases++
		switch {
		case s.leases <= s.failLeases:
			http.Error(w, "queue restarting", http.StatusInternalServerError)
		case s.leases == s.failLeases+1:
			resp := LeaseResponse{
				Job: Job{
					ID:      1,
					Request: Request{Scenario: "DS-1", Mode: "smart", Runs: 2, Seed: 5},
					Total:   2,
					Attempt: 1,
				},
				LeaseTTLMillis: 10_000,
			}
			json.NewEncoder(w).Encode(resp)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})
	ok := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }
	mux.HandleFunc("/runs/1/heartbeat", ok)
	mux.HandleFunc("/runs/1/episodes", ok)
	mux.HandleFunc("/runs/1/complete", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.completed = true
		s.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	return mux
}

// TestWorkerBackoffOnFlakyServer: a worker facing a server that fails
// its first lease attempts retries under growing, capped backoff and
// still completes the job once the server recovers.
func TestWorkerBackoffOnFlakyServer(t *testing.T) {
	srv := &flakyServer{failLeases: 8}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var sleeps []time.Duration
	w := &Worker{
		Server:  ts.URL,
		Name:    "flaky-test",
		Workers: 1,
		jitter:  func() float64 { return 0.5 },
		sleep: func(ctx context.Context, d time.Duration) bool {
			mu.Lock()
			sleeps = append(sleeps, d)
			mu.Unlock()
			// No real sleeping: the test observes the durations only.
			return ctx.Err() == nil
		},
	}

	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// The worker is done once the job completes and it goes back to
	// idle polling (a sleep of exactly the poll interval, 1s default,
	// can't be a backoff here: jitter 0.5 keeps backoffs at 3/4 of
	// their step, and no step is 4/3 s).
	deadline := time.After(10 * time.Second)
	for {
		srv.mu.Lock()
		completed := srv.completed
		srv.mu.Unlock()
		if completed {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never completed against the flaky server")
		case <-time.After(10 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	// With jitter pinned at 0.5 every backoff is exactly 3/4 of its
	// step: 75ms doubling to 2.4s, then capped at 3.75s (3/4 of 5s).
	want := []time.Duration{
		75 * time.Millisecond,
		150 * time.Millisecond,
		300 * time.Millisecond,
		600 * time.Millisecond,
		1200 * time.Millisecond,
		2400 * time.Millisecond,
		3750 * time.Millisecond,
		3750 * time.Millisecond,
	}
	if len(sleeps) < len(want) {
		t.Fatalf("recorded %d sleeps, want at least %d: %v", len(sleeps), len(want), sleeps)
	}
	for i, d := range want {
		if sleeps[i] != d {
			t.Errorf("backoff %d: slept %v, want %v (doubling from base, capped)", i+1, sleeps[i], d)
		}
	}
	// After the failures stop, the counter resets: the remaining sleeps
	// are idle polls at the flat interval, not residual backoff.
	for i := len(want); i < len(sleeps); i++ {
		if sleeps[i] != time.Second {
			t.Errorf("post-recovery sleep %d is %v, want the 1s poll interval (backoff not reset)", i, sleeps[i])
		}
	}
}

// TestBackoffDelayBounds checks the raw schedule: growth, cap, and
// jitter staying within [d/2, d).
func TestBackoffDelayBounds(t *testing.T) {
	w := &Worker{}
	prevHi := time.Duration(0)
	for n := 1; n <= 10; n++ {
		step := 100 * time.Millisecond << (n - 1)
		if step > 5*time.Second || step <= 0 {
			step = 5 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := w.backoffDelay(n)
			if d < step/2 || d >= step {
				t.Fatalf("n=%d: delay %v outside [%v, %v)", n, d, step/2, step)
			}
		}
		if step < prevHi {
			t.Fatalf("n=%d: schedule shrank", n)
		}
		prevHi = step
	}
}

// lockedBuffer lets the worker's log handler write from any goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestBackoffLogStructuredWarn: each failed lease attempt emits a WARN
// record carrying the attempt count and the next retry delay, so an
// operator watching a quiet worker sees the backoff schedule, not
// silence.
func TestBackoffLogStructuredWarn(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var out lockedBuffer
	var mu sync.Mutex
	calls := 0
	w := &Worker{
		Server: ts.URL,
		Name:   "logtest",
		jitter: func() float64 { return 0 },
		sleep: func(context.Context, time.Duration) bool {
			mu.Lock()
			calls++
			stop := calls >= 3
			mu.Unlock()
			if stop {
				cancel()
				return false
			}
			return true
		},
		Log: slog.New(slog.NewTextHandler(&out, nil)),
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	logs := out.String()
	if !strings.Contains(logs, "level=WARN") {
		t.Errorf("backoff did not log at WARN level; got:\n%s", logs)
	}
	for _, attr := range []string{"retry_in=", "attempt=", "worker=logtest"} {
		if !strings.Contains(logs, attr) {
			t.Errorf("backoff warn is missing the %q attribute; got:\n%s", attr, logs)
		}
	}
	// The attempt counter must actually count: three failed attempts
	// before the stop means attempt=3 appears.
	if !strings.Contains(logs, "attempt=3") {
		t.Errorf("attempt count not incrementing across retries; got:\n%s", logs)
	}
}
