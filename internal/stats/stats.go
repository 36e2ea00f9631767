package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (p in [0, 100]) of xs using
// linear interpolation between order statistics. It returns ErrEmpty for
// an empty sample.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p), nil
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs (0 for an empty sample).
func Median(xs []float64) float64 {
	m, err := Percentile(xs, 50)
	if err != nil {
		return 0
	}
	return m
}

// NormalFit is a fitted Gaussian, as reported in Fig. 5(c-f) of the
// paper for the bbox center errors.
type NormalFit struct {
	Mu    float64 `json:"mu"`
	Sigma float64 `json:"sigma"`
	P99   float64 `json:"p99"` // empirical 99th percentile of the sample
}

// FitNormal computes the maximum-likelihood Gaussian fit of xs plus the
// empirical 99th percentile.
func FitNormal(xs []float64) (NormalFit, error) {
	if len(xs) == 0 {
		return NormalFit{}, ErrEmpty
	}
	p99, err := Percentile(xs, 99)
	if err != nil {
		return NormalFit{}, err
	}
	return NormalFit{Mu: Mean(xs), Sigma: StdDev(xs), P99: p99}, nil
}

func (f NormalFit) String() string {
	return fmt.Sprintf("Normal(mu=%.3f, sigma=%.3f) p99=%.3f", f.Mu, f.Sigma, f.P99)
}

// ExpFit is a fitted shifted exponential Exp(loc, lambda), as reported in
// Fig. 5(a-b) for the continuous-misdetection run lengths (loc = 1 frame).
type ExpFit struct {
	Loc    float64 `json:"loc"`
	Lambda float64 `json:"lambda"`
	P99    float64 `json:"p99"`
}

// FitExponential computes the MLE of a shifted exponential: loc is the
// sample minimum and lambda is 1 / mean(x - loc). The paper's fits use
// loc = 1 (a misdetection run is at least one frame).
func FitExponential(xs []float64) (ExpFit, error) {
	if len(xs) == 0 {
		return ExpFit{}, ErrEmpty
	}
	loc := xs[0]
	for _, x := range xs {
		if x < loc {
			loc = x
		}
	}
	excess := 0.0
	for _, x := range xs {
		excess += x - loc
	}
	excess /= float64(len(xs))
	lambda := math.Inf(1)
	if excess > 0 {
		lambda = 1 / excess
	}
	p99, err := Percentile(xs, 99)
	if err != nil {
		return ExpFit{}, err
	}
	return ExpFit{Loc: loc, Lambda: lambda, P99: p99}, nil
}

func (f ExpFit) String() string {
	return fmt.Sprintf("Exp(loc=%g, lambda=%.3f) p99=%.1f", f.Loc, f.Lambda, f.P99)
}

// BoxStats is the five-number summary drawn as one box in the Fig. 6 and
// Fig. 7 boxplots.
type BoxStats struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// Box computes the five-number summary of xs.
func Box(xs []float64) (BoxStats, error) {
	if len(xs) == 0 {
		return BoxStats{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return BoxStats{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}, nil
}

func (b BoxStats) String() string {
	return fmt.Sprintf("min=%.2f q1=%.2f med=%.2f q3=%.2f max=%.2f (n=%d)",
		b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}
