package nn

import (
	"math"
	"path/filepath"
	"testing"

	"github.com/robotack/robotack/internal/stats"
)

func TestDenseForward(t *testing.T) {
	d := NewDense(2, 2, stats.NewRNG(1))
	copy(d.W, []float64{1, 2, 3, 4})
	copy(d.B, []float64{0.5, -0.5})
	out := d.Forward([]float64{1, 1}, false)
	if math.Abs(out[0]-3.5) > 1e-12 || math.Abs(out[1]-6.5) > 1e-12 {
		t.Errorf("out = %v", out)
	}
}

// Numerical gradient check on a tiny network: the analytical gradients
// from Backward must match finite differences.
func TestGradientCheck(t *testing.T) {
	rng := stats.NewRNG(3)
	n := &Network{Layers: []Layer{
		NewDense(3, 4, rng),
		&ReLU{},
		NewDense(4, 1, rng),
	}}
	x := []float64{0.3, -0.7, 1.2}
	y := 0.4

	loss := func() float64 {
		e := n.Forward(x, false)[0] - y
		return e * e
	}

	n.ZeroGrads()
	out := n.Forward(x, false)
	n.Backward([]float64{2 * (out[0] - y)})

	const eps = 1e-6
	for li, l := range n.Layers {
		params, grads := l.Params()
		for pi, p := range params {
			for j := range p {
				orig := p[j]
				p[j] = orig + eps
				lp := loss()
				p[j] = orig - eps
				lm := loss()
				p[j] = orig
				numeric := (lp - lm) / (2 * eps)
				if math.Abs(numeric-grads[pi][j]) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d param %d[%d]: analytic %v vs numeric %v",
						li, pi, j, grads[pi][j], numeric)
				}
			}
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	out := r.Forward([]float64{-1, 0, 2}, false)
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Errorf("out = %v", out)
	}
	grad := r.Backward([]float64{1, 1, 1})
	if grad[0] != 0 || grad[1] != 0 || grad[2] != 1 {
		t.Errorf("grad = %v", grad)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := stats.NewRNG(5)
	d := NewDropout(0.5, rng)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 1
	}
	// Eval mode: identity.
	out := d.Forward(x, false)
	for _, v := range out {
		if v != 1 {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
	// Train mode: ~half dropped, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected activation %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d/1000, want ~500", zeros)
	}
	if zeros+twos != 1000 {
		t.Error("activation count mismatch")
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	rng := stats.NewRNG(11)
	var ds Dataset
	for i := 0; i < 600; i++ {
		x := []float64{rng.Uniform(-1, 1), rng.Uniform(-1, 1)}
		ds.Add(x, 3*x[0]-2*x[1]+0.5)
	}
	train, val := ds.Split(0.6, rng)
	n := &Network{Layers: []Layer{
		NewDense(2, 16, rng), &ReLU{}, NewDense(16, 1, rng),
	}}
	res, err := Train(n, train, val, TrainConfig{Epochs: 80, BatchSize: 16, LR: 5e-3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValMAE > 0.1 {
		t.Errorf("validation MAE = %v, want < 0.1", res.ValMAE)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	rng := stats.NewRNG(13)
	var ds Dataset
	for i := 0; i < 1200; i++ {
		x := []float64{rng.Uniform(-2, 2)}
		ds.Add(x, math.Sin(2*x[0]))
	}
	train, val := ds.Split(0.6, rng)
	n := &Network{Layers: []Layer{
		NewDense(1, 32, rng), &ReLU{}, NewDense(32, 32, rng), &ReLU{}, NewDense(32, 1, rng),
	}}
	res, err := Train(n, train, val, TrainConfig{Epochs: 120, BatchSize: 32, LR: 5e-3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValMAE > 0.12 {
		t.Errorf("validation MAE = %v, want < 0.12 (sin fit)", res.ValMAE)
	}
}

func TestTrainEmpty(t *testing.T) {
	n := NewRegressor(6, stats.NewRNG(1))
	if _, err := Train(n, Dataset{}, Dataset{}, DefaultTrainConfig(), stats.NewRNG(1)); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestSplitFractions(t *testing.T) {
	rng := stats.NewRNG(17)
	var ds Dataset
	for i := 0; i < 100; i++ {
		ds.Add([]float64{float64(i)}, float64(i))
	}
	train, val := ds.Split(0.6, rng)
	if train.Len() != 60 || val.Len() != 40 {
		t.Errorf("split = %d/%d, want 60/40", train.Len(), val.Len())
	}
	// Every sample appears exactly once.
	seen := map[float64]bool{}
	for _, y := range append(append([]float64{}, train.Y...), val.Y...) {
		if seen[y] {
			t.Fatal("duplicate sample after split")
		}
		seen[y] = true
	}
}

func TestRegressorArchitecture(t *testing.T) {
	n := NewRegressor(6, stats.NewRNG(1))
	dims := []int{}
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			dims = append(dims, d.Out)
		}
	}
	want := []int{100, 100, 50, 1}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dense dims = %v, want %v (paper's 100-100-50 + scalar head)", dims, want)
		}
	}
	out := n.Forward(make([]float64, 6), false)
	if len(out) != 1 {
		t.Errorf("output dim = %d", len(out))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := stats.NewRNG(23)
	n := NewRegressor(4, rng)
	x := []float64{0.1, -0.2, 0.3, 0.7}
	want := n.Predict(x)

	path := filepath.Join(t.TempDir(), "model.json")
	if err := n.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, stats.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Predict(x); math.Abs(got-want) > 1e-12 {
		t.Errorf("loaded prediction %v, want %v", got, want)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.json"), stats.NewRNG(1)); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func BenchmarkPredict(b *testing.B) {
	n := NewRegressor(6, stats.NewRNG(1))
	x := []float64{10, -5, 0.5, 0, 0, 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.Predict(x)
	}
}
