package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {150, 5}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); !errors.Is(err, ErrEmpty) {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median = %v", got)
	}
}

func TestFitNormalRecoversParameters(t *testing.T) {
	rng := NewRNG(42)
	const mu, sigma = 0.25, 2.0
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Normal(mu, sigma)
	}
	fit, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-mu) > 0.05 {
		t.Errorf("Mu = %v, want ~%v", fit.Mu, mu)
	}
	if math.Abs(fit.Sigma-sigma) > 0.05 {
		t.Errorf("Sigma = %v, want ~%v", fit.Sigma, sigma)
	}
	// 99th percentile of N(mu, sigma) is mu + 2.326*sigma.
	if want := mu + 2.326*sigma; math.Abs(fit.P99-want) > 0.25 {
		t.Errorf("P99 = %v, want ~%v", fit.P99, want)
	}
}

func TestFitExponentialRecoversParameters(t *testing.T) {
	rng := NewRNG(7)
	const lambda, loc = 0.33, 1.0
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = loc + rng.Exponential(lambda)
	}
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Lambda-lambda) > 0.02 {
		t.Errorf("Lambda = %v, want ~%v", fit.Lambda, lambda)
	}
	if math.Abs(fit.Loc-loc) > 0.05 {
		t.Errorf("Loc = %v, want ~%v", fit.Loc, loc)
	}
}

func TestFitEmpty(t *testing.T) {
	if _, err := FitNormal(nil); !errors.Is(err, ErrEmpty) {
		t.Error("FitNormal(nil) should fail")
	}
	if _, err := FitExponential(nil); !errors.Is(err, ErrEmpty) {
		t.Error("FitExponential(nil) should fail")
	}
	if _, err := Box(nil); !errors.Is(err, ErrEmpty) {
		t.Error("Box(nil) should fail")
	}
}

func TestBox(t *testing.T) {
	b, err := Box([]float64{7, 1, 3, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 9 || b.Median != 5 || b.N != 5 {
		t.Errorf("Box = %+v", b)
	}
	if b.Q1 != 3 || b.Q3 != 7 {
		t.Errorf("quartiles = %v, %v", b.Q1, b.Q3)
	}
}

// Property: the five-number summary is ordered min<=q1<=med<=q3<=max.
func TestBoxOrderedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		b, err := Box(xs)
		if err != nil {
			return false
		}
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uniform(0, 1) != b.Uniform(0, 1) {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uniform(0, 1) == c2.Uniform(0, 1) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("sibling streams correlate: %d/100 equal draws", same)
	}
}

func TestRNGUniformRange(t *testing.T) {
	rng := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := rng.Uniform(3, 7)
		if v < 3 || v >= 7 {
			t.Fatalf("Uniform sample %v out of range", v)
		}
	}
	n := 0
	for i := 0; i < 10000; i++ {
		if rng.Bernoulli(0.25) {
			n++
		}
	}
	if n < 2200 || n > 2800 {
		t.Errorf("Bernoulli(0.25) hit %d/10000", n)
	}
}

// TestReseedMatchesFresh: a recycled, reseeded stream must replay the
// exact sequence a freshly constructed stream produces — the property
// that lets pooled episode state reuse RNG sources.
func TestReseedMatchesFresh(t *testing.T) {
	pooled := NewRNG(1)
	for i := 0; i < 100; i++ {
		pooled.Uniform(0, 1) // dirty the stream
	}
	for _, seed := range []int64{42, -7, 0, 1 << 40} {
		pooled.Reseed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if got, want := pooled.Uniform(0, 1), fresh.Uniform(0, 1); got != want {
				t.Fatalf("seed %d draw %d: reseeded %v, fresh %v", seed, i, got, want)
			}
		}
	}
}

// TestSplitSeedMatchesSplit: Split(parent) and Reseed(SplitSeed(parent))
// must yield identical child streams from identical parent states, and
// the derived seeds themselves are pinned.
func TestSplitSeedMatchesSplit(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	child := a.Split()
	recycled := NewRNG(0)
	split := b.SplitSeed()
	if split != -3327136571604815712 {
		t.Errorf("NewRNG(99).SplitSeed() = %d, want -3327136571604815712", split)
	}
	if next := b.SplitSeed(); next != 8227141484032969922 {
		t.Errorf("second SplitSeed of NewRNG(99) = %d, want 8227141484032969922", next)
	}
	recycled.Reseed(split)
	for i := 0; i < 50; i++ {
		if got, want := recycled.Uniform(0, 1), child.Uniform(0, 1); got != want {
			t.Fatalf("draw %d: recycled child %v, split child %v", i, got, want)
		}
	}
}
