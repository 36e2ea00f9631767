package nn

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/stats"
)

func TestDenseForward(t *testing.T) {
	d := NewDense(2, 2, stats.NewRNG(1))
	copy(d.W, []float64{1, 2, 3, 4})
	copy(d.B, []float64{0.5, -0.5})
	out := d.ForwardInto(make([]float64, 2), []float64{1, 1})
	if math.Abs(out[0]-3.5) > 1e-12 || math.Abs(out[1]-6.5) > 1e-12 {
		t.Errorf("out = %v", out)
	}
}

// fixedForward runs tr's slots forward on x as Trainer.forward does,
// except that each hidden layer's keep mask is fixed to its active
// units instead of drawn: dropout keeps every unit, and the kept units
// still scale by 1/(1-0.1).
func fixedForward(tr *Trainer, x []float64) []float64 {
	for i, d := range tr.n.Layers {
		s := &tr.slots[i]
		s.x = x
		x = d.ForwardInto(s.out, x)
		if s.keep != nil {
			for j, v := range x {
				s.keep[j] = v > 0
			}
			reluDropout(x, s.keep)
		}
	}
	return x
}

// Numerical gradient check on a tiny network: the analytical gradients
// of the trainer's backward kernels must match finite differences of
// its forward kernels.
func TestGradientCheck(t *testing.T) {
	rng := stats.NewRNG(3)
	n := stack(rng, 3, 5, 4, 1)
	x := []float64{0.3, -0.7, 1.2}
	y := 0.4
	tr, err := NewTrainer(n, Dataset{X: [][]float64{x}, Y: []float64{y}}, Dataset{}, DefaultTrainConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		e := fixedForward(tr, x)[0] - y
		return e * e
	}

	// Fresh layers hold zero gradients; backpropagate dL/dout through
	// the stack, last layer first.
	out := fixedForward(tr, x)
	tr.backward([]float64{2 * (out[0] - y)})

	const eps = 1e-6
	for li, d := range n.Layers {
		for _, p := range []struct {
			name          string
			params, grads []float64
		}{{"W", d.W, d.gw}, {"B", d.B, d.gb}} {
			for j := range p.params {
				orig := p.params[j]
				p.params[j] = orig + eps
				lp := loss()
				p.params[j] = orig - eps
				lm := loss()
				p.params[j] = orig
				numeric := (lp - lm) / (2 * eps)
				if math.Abs(numeric-p.grads[j]) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d %s[%d]: analytic %v vs numeric %v", li, p.name, j, p.grads[j], numeric)
				}
			}
		}
	}
}

// TestReLU: the fused kernel passes only active, kept units, scaled by
// 1/(1-0.1), and its backward pass lets the gradient through those
// units alone.
func TestReLU(t *testing.T) {
	h := []float64{-1, 0, 2, 3}
	keep := []bool{true, true, true, false}
	reluDropout(h, keep)
	if h[0] != 0 || h[1] != 0 || h[2] != 2/(1-0.1) || h[3] != 0 {
		t.Errorf("h = %v", h)
	}
	grad := []float64{1, 1, 1, 1}
	reluDropoutBack(grad, keep)
	if grad[0] != 0 || grad[1] != 0 || grad[2] != 1/(1-0.1) || grad[3] != 0 {
		t.Errorf("grad = %v", grad)
	}
}

// TestDropoutTrainVsEval: a training forward pass drops about a tenth
// of a hidden layer's units and scales the rest by 1/(1-0.1); Infer
// drops none.
func TestDropoutTrainVsEval(t *testing.T) {
	n := stack(stats.NewRNG(5), 1, 1000, 1)
	for _, d := range n.Layers {
		for i := range d.W {
			d.W[i] = 1
		}
		clear(d.B)
	}
	x := []float64{1}
	// Eval mode: identity.
	if got := n.Infer(n.NewInferScratch(), x)[0]; got != 1000 {
		t.Fatalf("Infer = %v, want 1000: eval-mode dropout must be the identity", got)
	}
	// Train mode: ~a tenth dropped, survivors scaled by 1/0.9.
	tr, err := NewTrainer(n, Dataset{X: [][]float64{x}, Y: []float64{0}}, Dataset{}, DefaultTrainConfig(), stats.NewRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	tr.forward(x)
	zeros := 0
	for _, v := range tr.slots[0].out {
		switch v {
		case 0:
			zeros++
		case 1 / (1 - 0.1):
		default:
			t.Fatalf("unexpected activation %v", v)
		}
	}
	if zeros < 60 || zeros > 140 {
		t.Errorf("dropped %d/1000, want ~100", zeros)
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
	n := &Network{Layers: []*Dense{NewDense(2, 16, rng), NewDense(16, 1, rng)}}
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
	n := &Network{Layers: []*Dense{NewDense(1, 32, rng), NewDense(32, 32, rng), NewDense(32, 1, rng)}}
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
	for _, d := range n.Layers {
		dims = append(dims, d.Out)
	}
	want := []int{100, 100, 50, 1}
	for i := range want {
		if dims[i] != want[i] {
			t.Fatalf("dense dims = %v, want %v (paper's 100-100-50 + scalar head)", dims, want)
		}
	}
	out := n.Infer(n.NewInferScratch(), make([]float64, 6))
	if len(out) != 1 {
		t.Errorf("output dim = %d", len(out))
	}
}
