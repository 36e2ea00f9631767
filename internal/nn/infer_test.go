package nn

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/stats"
)

// TestInferMatchesForward is the golden equivalence test for the
// pooled inference path: for random networks across layer shapes,
// Infer must produce outputs bit-identical to the reference's forward
// pass, refInfer.
func TestInferMatchesForward(t *testing.T) {
	shapes := [][]int{
		{1, 1},
		{3, 8, 1},
		{6, 100, 100, 50, 1}, // the paper's regressor
		{10, 7, 13, 4},
		{2, 64, 2},
	}
	rng := stats.NewRNG(42)
	for _, dims := range shapes {
		n := stack(rng, dims...)
		s := n.NewInferScratch()
		for trial := 0; trial < 25; trial++ {
			x := make([]float64, dims[0])
			for i := range x {
				x[i] = rng.Normal(0, 2)
			}
			want := refInfer(n, x)
			got := n.Infer(s, x)
			if len(got) != len(want) {
				t.Fatalf("shape %v: Infer returned %d outputs, the reference %d", dims, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("shape %v trial %d: Infer[%d] = %v, reference = %v (must be bit-identical)",
						dims, trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestInferDoesNotClobberInput verifies the caller's input vector
// survives an Infer call (the first layer writes into scratch, never
// into x).
func TestInferDoesNotClobberInput(t *testing.T) {
	rng := stats.NewRNG(7)
	n := NewRegressor(6, rng)
	s := n.NewInferScratch()
	x := []float64{1, -2, 3, -4, 5, -6}
	orig := append([]float64(nil), x...)
	n.Infer(s, x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("Infer mutated input[%d]: %v -> %v", i, orig[i], x[i])
		}
	}
}

// TestInferZeroAllocs enforces the inference path's allocation
// contract: a warm Infer call performs zero heap allocations. CI
// fails on any regression here.
func TestInferZeroAllocs(t *testing.T) {
	rng := stats.NewRNG(3)
	n := NewRegressor(6, rng)
	s := n.NewInferScratch()
	x := []float64{12, -1.5, 0.2, 0.4, -0.1, 2}
	n.Infer(s, x) // warm-up
	allocs := testing.AllocsPerRun(200, func() {
		n.Infer(s, x)
	})
	if allocs != 0 {
		t.Fatalf("warm Infer allocates %.1f times per call, want 0", allocs)
	}
}

// TestInferScratchRebind is the regression test for the historical
// sizeFor bug: the scratch cached sizing by layer COUNT, so handing a
// warm scratch a same-depth but wider network kept the undersized
// buffers and panicked on a slice bound. Sizing is now keyed to the
// network's identity and recomputed on rebind.
func TestInferScratchRebind(t *testing.T) {
	rng := stats.NewRNG(11)
	narrow := stack(rng, 4, 8, 1)
	wide := stack(rng, 4, 64, 1) // same layer count, wider
	s := narrow.NewInferScratch()
	x := []float64{0.5, -1, 2, 0.25}
	narrow.Infer(s, x)

	want := refInfer(wide, x)
	got := wide.Infer(s, x) // must rebind + regrow, not panic
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rebound scratch output %d: got %v want %v", i, got[i], want[i])
		}
	}
	// And rebinding back must keep working with the grown buffers.
	wantN := refInfer(narrow, x)
	gotN := narrow.Infer(s, x)
	if gotN[0] != wantN[0] {
		t.Fatalf("re-rebound scratch: got %v want %v", gotN[0], wantN[0])
	}
}

// TestInferScratchNoMidEpisodeResize: a warm, bound scratch must not
// re-size (or re-scan the layer stack) on repeated calls with the same
// network — the fast path is one pointer compare.
func TestInferScratchNoMidEpisodeResize(t *testing.T) {
	rng := stats.NewRNG(13)
	n := NewRegressor(6, rng)
	s := n.NewInferScratch()
	x := make([]float64, 6)
	n.Infer(s, x)
	a0 := &s.a[0]
	for i := 0; i < 50; i++ {
		n.Infer(s, x)
	}
	if &s.a[0] != a0 {
		t.Fatal("warm scratch re-sized mid-stream")
	}
}

func BenchmarkInfer(b *testing.B) {
	rng := stats.NewRNG(5)
	n := NewRegressor(6, rng)
	s := n.NewInferScratch()
	x := []float64{12, -1.5, 0.2, 0.4, -0.1, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Infer(s, x)
	}
}
