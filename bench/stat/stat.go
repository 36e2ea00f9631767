// Package stat holds the order statistics the benchmark and its
// comparison tool report.
package stat

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or below
// it. p <= 0 gives the minimum; an empty input gives 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if p <= 0 {
		return s[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// TailPercentile returns the highest whole percentile, from 50 to 99,
// that leaves at least ten of n samples beyond its nearest rank — the
// tail a timing can honestly report. It returns 0 when even the median
// has fewer than ten samples beyond it.
func TailPercentile(n int) float64 {
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-rank >= 10 {
			return float64(p)
		}
	}
	return 0
}

// Median returns the middle of xs, averaging the two middle samples of
// an even count (Python's statistics.median).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match the ones the acceptance check
// computes. Fewer than two samples give the single sample (or 0) for
// both.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// Spread is the distance between the quartiles as a share of the
// median: the run-to-run spread the acceptance rule bounds.
func Spread(xs []float64) float64 {
	med := Median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
