package stat

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		p, want float64
	}{
		{0, 15}, {5, 15}, {20, 15}, {21, 20}, {30, 20}, {40, 20}, {50, 35}, {80, 40}, {99, 50}, {100, 50},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("unsorted input: got %v, want 2", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{600, 98}, // 12 samples beyond p98, 6 beyond p99
		{100, 90},
		{1000, 99},
		{25, 60},
		{20, 50},
		{19, 0}, // even the median leaves only 9 beyond
		{0, 0},
	} {
		if got := TailPercentile(tc.n); got != tc.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
		spread      float64
	}{
		{xs: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, q1: 2.75, med: 5.5, q3: 8.25, spread: 1},
		{xs: []float64{10, 1, 7, 3}, q1: 1.5, med: 5, q3: 9.25, spread: 1.55},
		{xs: []float64{2, 4}, q1: 1.5, med: 3, q3: 4.5, spread: 1},
		{xs: []float64{5, 1, 3}, q1: 1, med: 3, q3: 5, spread: 4.0 / 3},
		{xs: []float64{7}, q1: 7, med: 7, q3: 7, spread: 0},
	} {
		q1, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if got := Median(tc.xs); got != tc.med {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, got, tc.med)
		}
		if got := Spread(tc.xs); math.Abs(got-tc.spread) > 1e-12 {
			t.Errorf("Spread(%v) = %v, want %v", tc.xs, got, tc.spread)
		}
	}
}
