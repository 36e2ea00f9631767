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

func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = episode
	}
	var want []Result
	for _, workers := range []int{1, 4, 8} {
		got, err := New(WithWorkers(workers)).RunAll(42, jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
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
	results, err := New(WithWorkers(2)).RunAll(100, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Index != i || r.Seed != 100+int64(i) || r.Value.(int64) != r.Seed {
			t.Errorf("result %d = %+v, want additive seed %d", i, r, 100+int64(i))
		}
	}

	results, err = New(WithSeedDerivation(SplitMixSeeds)).RunAll(100, jobs)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for i, r := range results {
		if r.Seed != SplitMixSeeds(100, i) {
			t.Errorf("splitmix seed %d = %d, want %d", i, r.Seed, SplitMixSeeds(100, i))
		}
		if seen[r.Seed] {
			t.Errorf("splitmix seed collision at index %d", i)
		}
		seen[r.Seed] = true
	}
}

func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const n = 128
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = func(ctx context.Context, seed int64) (any, error) {
			if seed >= 3 { // let a few jobs through, then stall on ctx
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(5 * time.Second):
					return nil, errors.New("cancellation never arrived")
				}
			}
			return seed, nil
		}
	}
	eng := New(WithWorkers(4), WithContext(ctx), WithProgress(func(done, total int) {
		if done == 3 {
			cancel()
		}
	}))

	start := time.Now()
	results, err := eng.RunAll(0, jobs)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) == 0 || len(results) >= n {
		t.Errorf("got %d results, want partial (0 < n < %d)", len(results), n)
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
	for r := range New(WithWorkers(4)).Stream(7, jobs) {
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
	if _, err := eng.RunAll(1, jobs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 10 || calls[len(calls)-1] != 10 {
		t.Errorf("progress calls = %v, want monotone 1..10", calls)
	}
}

func TestRunAllSurfacesJobError(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job{
		func(context.Context, int64) (any, error) { return 1, nil },
		func(context.Context, int64) (any, error) { return nil, boom },
		func(context.Context, int64) (any, error) { return 3, nil },
	}
	results, err := New(WithWorkers(2)).RunAll(0, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want all 3 (failures included)", len(results))
	}
	if results[1].Err == nil || results[0].Err != nil || results[2].Err != nil {
		t.Errorf("error attached to wrong result: %+v", results)
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
	if _, err := eng.RunAll(0, js); err != nil {
		t.Fatal(err)
	}
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
	rs, err := base.RunAll(0, []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Value != nil {
		t.Errorf("WorkerState without a factory = %v, want nil", rs[0].Value)
	}

	derived := base.With(WithWorkerState(func() any { return 42 }))
	rs, err = derived.RunAll(0, []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Value != 42 {
		t.Errorf("derived engine job state = %v, want 42", rs[0].Value)
	}
	rs, err = base.RunAll(0, []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Value != nil {
		t.Errorf("With mutated the base engine: state = %v, want nil", rs[0].Value)
	}
}
