package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// episode is a small CPU-bound stand-in for a closed-loop run whose
// result depends only on its seed.
func episode(ctx context.Context, seed int64) (any, error) {
	v := uint64(seed)
	for i := 0; i < 2000; i++ {
		if i%512 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		v = v*6364136223846793005 + 1442695040888963407
	}
	return v, nil
}

// collect ranges StreamOrdered and returns every delivered Result,
// failing the test on a job error.
func collect(t *testing.T, e *Engine, baseSeed int64, jobs []Job) []Result {
	t.Helper()
	var rs []Result
	for r := range e.StreamOrdered(baseSeed, jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Index, r.Err)
		}
		rs = append(rs, r)
	}
	return rs
}

func TestStreamOrderedDeterministicAcrossWorkers(t *testing.T) {
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = episode
	}
	var want []Result
	for _, workers := range []int{1, 4, 8} {
		got := collect(t, New(WithWorkers(workers)), 42, jobs)
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(jobs))
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from 1-worker run", workers)
		}
	}
}

func TestSeedDerivation(t *testing.T) {
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = func(_ context.Context, seed int64) (any, error) { return seed, nil }
	}
	for i, r := range collect(t, New(WithWorkers(2)), 100, jobs) {
		if r.Index != i || r.Seed != 100+int64(i) || r.Value.(int64) != r.Seed {
			t.Errorf("result %d = %+v, want additive seed %d", i, r, 100+int64(i))
		}
	}

	seen := map[int64]bool{}
	for i := range jobs {
		seed := SplitMixSeeds(100, i)
		if seen[seed] {
			t.Errorf("splitmix seed collision at index %d", i)
		}
		seen[seed] = true
	}

	// The policy search and bench/ derive their episode seeds here, so
	// the derivation's values are pinned, negative indices included.
	for _, p := range []struct {
		base  int64
		index int
		want  int64
	}{
		{4000, 0, 3089666837950670904},
		{4000, -1, 2495521213556563461},
		{4000, 7, -1859740857242841436},
		{4000, -1001, -8783853453224222794},
		{100, 1, 2532601429470541124},
		{-5, 3, -2167467587980096447},
		{5, -1, -1585678240641251629},
	} {
		if got := SplitMixSeeds(p.base, p.index); got != p.want {
			t.Errorf("SplitMixSeeds(%d, %d) = %d, want %d", p.base, p.index, got, p.want)
		}
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 128
	eng := New(WithWorkers(4), WithContext(ctx), WithProgress(func(done, total int) {
		if done == 3 {
			cancel()
		}
	}))

	// A stalled job fails with its own error, so the check below sees
	// that Map reports the context's error, not the first job's.
	errStalled := errors.New("stalled until canceled")
	start := time.Now()
	out, err := Map(eng, 0, make([]struct{}, n), func(ctx context.Context, seed int64, _ struct{}) (int64, error) {
		if seed >= 3 { // let a few jobs through, then stall on ctx
			select {
			case <-ctx.Done():
				return 0, errStalled
			case <-time.After(5 * time.Second):
				return 0, errors.New("cancellation never arrived")
			}
		}
		return seed + 1, nil
	})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != n {
		t.Fatalf("got %d outputs, want one per item (%d)", len(out), n)
	}
	// Jobs 0-2 completed before the cancellation; every other item
	// stalled or never ran, and holds the zero value.
	for i, v := range out {
		want := int64(0)
		if i < 3 {
			want = int64(i) + 1
		}
		if v != want {
			t.Errorf("output %d = %d, want %d", i, v, want)
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestStreamDeliversAllJobs(t *testing.T) {
	jobs := make([]Job, 32)
	for i := range jobs {
		jobs[i] = episode
	}
	seen := map[int]bool{}
	for r := range New(WithWorkers(4)).stream(7, jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
	}
	if len(seen) != len(jobs) {
		t.Errorf("stream delivered %d results, want %d", len(seen), len(jobs))
	}
}

func TestProgressReachesTotal(t *testing.T) {
	var mu sync.Mutex
	var calls []int
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = episode
	}
	eng := New(WithWorkers(3), WithProgress(func(done, total int) {
		mu.Lock()
		calls = append(calls, done)
		mu.Unlock()
		if total != 10 {
			t.Errorf("total = %d, want 10", total)
		}
	}))
	collect(t, eng, 1, jobs)
	if len(calls) != 10 || calls[len(calls)-1] != 10 {
		t.Errorf("progress calls = %v, want monotone 1..10", calls)
	}
}

func TestMapSurfacesJobError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(New(WithWorkers(2)), 0, []int{1, 2, 3, 4},
		func(_ context.Context, _ int64, item int) (int, error) {
			if item%2 == 0 {
				return item, fmt.Errorf("item %d: %w", item, boom)
			}
			return 10 * item, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if err.Error() != "item 2: boom" {
		t.Errorf("err = %v, want the first failed item's (item 2)", err)
	}
	if want := []int{10, 0, 30, 0}; !reflect.DeepEqual(out, want) {
		t.Errorf("outputs = %v, want %v (failed items zero, the rest filled in)", out, want)
	}
}

func TestMapPreservesItemOrder(t *testing.T) {
	items := []string{"a", "b", "c", "d"}
	out, err := Map(New(WithWorkers(4)), 10, items,
		func(_ context.Context, seed int64, item string) (string, error) {
			return fmt.Sprintf("%s-%d", item, seed), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a-10", "b-11", "c-12", "d-13"}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("Map = %v, want %v", out, want)
	}
}

func TestStreamOrderedDeliversInSubmissionOrder(t *testing.T) {
	const n = 40
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context, seed int64) (any, error) {
			// Early indices sleep longest, so completion order is
			// roughly the reverse of submission order.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return seed, nil
		}
	}
	e := New(WithWorkers(8))
	next := 0
	for r := range e.StreamOrdered(77, jobs) {
		if r.Index != next {
			t.Fatalf("result %d arrived out of order (want index %d)", r.Index, next)
		}
		if r.Value.(int64) != AdditiveSeeds(77, r.Index) {
			t.Errorf("index %d carries seed value %v", r.Index, r.Value)
		}
		next++
	}
	if next != n {
		t.Errorf("delivered %d results, want %d", next, n)
	}
}

func TestStreamOrderedFlushesAfterCancellationGap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	jobs := make([]Job, 30)
	for i := range jobs {
		i := i
		jobs[i] = func(jctx context.Context, seed int64) (any, error) {
			if i == 0 {
				// Hold index 0 until the batch is canceled, so the jobs
				// that completed meanwhile sit behind a gap.
				time.Sleep(50 * time.Millisecond)
				once.Do(cancel)
			} else {
				// Slow enough that the batch cannot drain before the
				// cancellation above lands.
				time.Sleep(10 * time.Millisecond)
			}
			return i, nil
		}
	}
	e := New(WithWorkers(4), WithContext(ctx))
	last := -1
	got := 0
	for r := range e.StreamOrdered(5, jobs) {
		if r.Index <= last {
			t.Fatalf("index %d delivered after %d", r.Index, last)
		}
		last = r.Index
		got++
	}
	if got == 0 || got >= 30 {
		t.Errorf("delivered %d results, want a canceled partial batch", got)
	}
}

// TestWorkerStateOnePerWorker verifies WithWorkerState creates one
// state per worker goroutine, hands it to every job that worker runs,
// and never shares it across workers.
func TestWorkerStateOnePerWorker(t *testing.T) {
	type state struct{ id int64 }
	var created atomic.Int64
	eng := New(WithWorkers(3), WithWorkerState(func() any {
		return &state{id: created.Add(1)}
	}))
	const jobs = 24
	var mu sync.Mutex
	jobStates := make([]*state, 0, jobs)
	js := make([]Job, jobs)
	for i := range js {
		js[i] = func(ctx context.Context, _ int64) (any, error) {
			s, ok := WorkerState(ctx).(*state)
			if !ok || s == nil {
				return nil, errors.New("job saw no worker state")
			}
			mu.Lock()
			jobStates = append(jobStates, s)
			mu.Unlock()
			time.Sleep(time.Millisecond) // let several workers engage
			return nil, nil
		}
	}
	collect(t, eng, 0, js)
	if n := created.Load(); n < 1 || n > 3 {
		t.Errorf("created %d worker states, want between 1 and the pool size 3", n)
	}
	distinct := map[*state]bool{}
	for _, s := range jobStates {
		distinct[s] = true
	}
	if len(distinct) != int(created.Load()) {
		t.Errorf("jobs saw %d distinct states but %d were created", len(distinct), created.Load())
	}
}

// TestWorkerStateAbsent verifies WorkerState returns nil without a
// factory and With does not mutate the base engine.
func TestWorkerStateAbsent(t *testing.T) {
	base := New(WithWorkers(2))
	job := func(ctx context.Context, _ int64) (any, error) {
		return WorkerState(ctx), nil
	}
	rs := collect(t, base, 0, []Job{job})
	if rs[0].Value != nil {
		t.Errorf("WorkerState without a factory = %v, want nil", rs[0].Value)
	}

	derived := base.With(WithWorkerState(func() any { return 42 }))
	rs = collect(t, derived, 0, []Job{job})
	if rs[0].Value != 42 {
		t.Errorf("derived engine job state = %v, want 42", rs[0].Value)
	}
	rs = collect(t, base, 0, []Job{job})
	if rs[0].Value != nil {
		t.Errorf("With mutated the base engine: state = %v, want nil", rs[0].Value)
	}
}
