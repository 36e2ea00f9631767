package nn

import (
	"math"
	"runtime"
	"testing"

	"github.com/robotack/robotack/internal/stats"
)

// refTrain is the per-sample trainer the zero-skipping kernels replaced,
// kept as the reference they must match bit for bit: the same epoch,
// minibatch and Adam loop as Train, a dense forward over every input,
// a Dense backward whose only skip is the zero-gradient row, and the
// ReLU and the dropout of each hidden layer as two steps of their own,
// each into a fresh buffer. It draws the dropout masks from rng, one
// draw per unit in unit order, after the minibatch order. It evaluates
// with the same dense forward and the ReLU alone.
func refTrain(n *Network, train, val Dataset, cfg TrainConfig, rng *stats.RNG) Result {
	opt := NewAdam(cfg.LR)
	opt.bind(n)
	last := len(n.Layers) - 1
	xs := make([][]float64, len(n.Layers))
	active := make([][]bool, len(n.Layers))
	kept := make([][]bool, len(n.Layers))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		order := rng.Perm(train.Len())
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			for _, g := range opt.grads {
				clear(g)
			}
			for _, j := range order[start:end] {
				out := train.X[j]
				for i, d := range n.Layers {
					xs[i] = out
					out = refDenseForward(d, out)
					if i < last {
						out, active[i] = refReLU(out)
						out, kept[i] = refDropout(out, rng)
					}
				}
				grad := []float64{2 * (out[0] - train.Y[j])}
				for i := last; i >= 0; i-- {
					if i < last {
						grad = refDropoutBack(grad, kept[i])
						grad = refReLUBack(grad, active[i])
					}
					grad = refDenseBackward(n.Layers[i], grad, xs[i])
				}
			}
			opt.Step(n, end-start)
		}
	}
	var res Result
	res.TrainMSE, _ = refEvaluate(n, train)
	res.ValMSE, res.ValMAE = refEvaluate(n, val)
	return res
}

// refDenseForward is the dense matrix-vector product: every output
// starts at its bias and adds W[o][i]*x[i] for every input in order.
func refDenseForward(d *Dense, x []float64) []float64 {
	out := make([]float64, d.Out)
	for o := range out {
		s := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = s
	}
	return out
}

// refDenseBackward accumulates d's parameter gradients and returns the
// full dL/dx, skipping only rows whose upstream gradient is 0.
func refDenseBackward(d *Dense, grad, x []float64) []float64 {
	in := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := grad[o]
		if g == 0 {
			continue
		}
		d.gb[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.gw[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			grow[i] += g * xi
			in[i] += g * row[i]
		}
	}
	return in
}

// refReLU returns max(x, 0), with +0 for every unit that is not
// positive, and the units that are.
func refReLU(x []float64) (out []float64, active []bool) {
	out, active = make([]float64, len(x)), make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			out[i], active[i] = v, true
		}
	}
	return out, active
}

// refReLUBack passes grad through the active units, +0 elsewhere.
func refReLUBack(grad []float64, active []bool) []float64 {
	out := make([]float64, len(grad))
	for i, g := range grad {
		if active[i] {
			out[i] = g
		}
	}
	return out
}

// refRate is the paper's dropout rate, a variable so that the
// reference computes its scale at run time.
var refRate = 0.1

// refDropout draws one Bernoulli(refRate) per unit, in unit order,
// and returns x with the drawn units at +0 and the others scaled by
// 1/(1-refRate), and the units it kept.
func refDropout(x []float64, rng *stats.RNG) (out []float64, kept []bool) {
	out, kept = make([]float64, len(x)), make([]bool, len(x))
	scale := 1 / (1 - refRate)
	for i, v := range x {
		if !rng.Bernoulli(refRate) {
			out[i], kept[i] = v*scale, true
		}
	}
	return out, kept
}

// refDropoutBack passes grad, scaled by 1/(1-refRate), through the kept
// units, +0 elsewhere.
func refDropoutBack(grad []float64, kept []bool) []float64 {
	out := make([]float64, len(grad))
	scale := 1 / (1 - refRate)
	for i, g := range grad {
		if kept[i] {
			out[i] = g * scale
		}
	}
	return out
}

// refInfer is the reference's inference pass: the dense forward of
// every layer and the ReLU of every hidden one.
func refInfer(n *Network, x []float64) []float64 {
	for i, d := range n.Layers {
		x = refDenseForward(d, x)
		if i < len(n.Layers)-1 {
			x, _ = refReLU(x)
		}
	}
	return x
}

// refEvaluate is evaluate through refInfer.
func refEvaluate(n *Network, d Dataset) (mse, mae float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	for i, x := range d.X {
		e := refInfer(n, x)[0] - d.Y[i]
		mse += e * e
		mae += math.Abs(e)
	}
	k := float64(d.Len())
	return mse / k, mae / k
}

// trainCase is one network, dataset and recipe for the differential
// tests. build constructs the network from rng, which the fit then
// draws from too.
type trainCase struct {
	name       string
	build      func(rng *stats.RNG) *Network
	train, val Dataset
	cfg        TrainConfig
	seed       int64
}

// check fits c's network with Train and with refTrain from the same
// seed and fails unless every weight, bias and Result field is
// bit-identical, and unless no bias of the fitted network is -0, which
// Dense.ForwardInto's zero-skipping sum requires.
func (c trainCase) check(t *testing.T) {
	t.Helper()
	rng := stats.NewRNG(c.seed)
	got := c.build(rng)
	gotRes, err := Train(got, c.train, c.val, c.cfg, rng)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	rng = stats.NewRNG(c.seed)
	want := c.build(rng)
	wantRes := refTrain(want, c.train, c.val, c.cfg, rng)
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"TrainMSE", gotRes.TrainMSE, wantRes.TrainMSE},
		{"ValMSE", gotRes.ValMSE, wantRes.ValMSE},
		{"ValMAE", gotRes.ValMAE, wantRes.ValMAE},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: %s = %v, reference %v", c.name, f.name, f.got, f.want)
		}
	}
	for li, d := range got.Layers {
		for j, b := range d.B {
			if b == 0 && math.Signbit(b) {
				t.Fatalf("%s: layer %d B[%d] is -0 after training", c.name, li, j)
			}
		}
		ref := want.Layers[li]
		for _, p := range []struct {
			name      string
			got, want []float64
		}{{"W", d.W, ref.W}, {"B", d.B, ref.B}} {
			for j := range p.got {
				if math.Float64bits(p.got[j]) != math.Float64bits(p.want[j]) {
					t.Fatalf("%s: layer %d %s[%d] = %v, reference %v", c.name, li, p.name, j, p.got[j], p.want[j])
				}
			}
		}
	}
}

// withZeros returns a copy of ds in which every third row is all zeros
// and other entries are replaced by 0 or -0 at random.
func withZeros(ds Dataset, seed int64) Dataset {
	rng := stats.NewRNG(seed)
	var out Dataset
	for i, x := range ds.X {
		row := append([]float64(nil), x...)
		for j := range row {
			switch {
			case i%3 == 0:
				row[j] = 0
			case rng.Bernoulli(0.2):
				row[j] = 0
			case rng.Bernoulli(0.2):
				row[j] = math.Copysign(0, -1)
			}
		}
		out.Add(row, ds.Y[i])
	}
	return out
}

// stack builds a network of Dense layers of the given widths, input
// first.
func stack(rng *stats.RNG, dims ...int) *Network {
	n := &Network{}
	for i := 0; i+1 < len(dims); i++ {
		n.Layers = append(n.Layers, NewDense(dims[i], dims[i+1], rng))
	}
	return n
}

// TestTrainMatchesReference holds Train, with its zero-skipping forward
// and backward kernels and its fused ReLU-then-dropout kernel, to the
// dense per-sample reference bit for bit.
func TestTrainMatchesReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the dense reference may fuse multiply-adds on %s", runtime.GOARCH)
	}
	ds := syntheticOracleData(120, 11)
	train, val := ds.Split(0.6, stats.NewRNG(12))
	zTrain, zVal := withZeros(train, 13), withZeros(val, 14)
	regressor := func(rng *stats.RNG) *Network { return NewRegressor(4, rng) }
	cfg := TrainConfig{Epochs: 3, BatchSize: 16, LR: 1e-3}
	for _, c := range []trainCase{
		{name: "regressor", build: regressor, train: train, val: val, cfg: cfg},
		{name: "zero and negative-zero inputs", build: regressor, train: zTrain, val: zVal, cfg: cfg},
		{name: "linear", build: func(rng *stats.RNG) *Network { return stack(rng, 4, 1) },
			train: zTrain, val: zVal, cfg: cfg},
		{name: "narrow hidden layers", build: func(rng *stats.RNG) *Network { return stack(rng, 4, 6, 5, 1) },
			train: zTrain, val: zVal, cfg: cfg},
		{name: "batch size 1", build: regressor, train: zTrain, val: zVal,
			cfg: TrainConfig{Epochs: 2, BatchSize: 1, LR: 1e-3}},
		{name: "ragged last batch", build: regressor, train: Dataset{X: zTrain.X[:50], Y: zTrain.Y[:50]}, val: zVal,
			cfg: TrainConfig{Epochs: 3, BatchSize: 7, LR: 1e-2}},
		{name: "zero epochs", build: regressor, train: zTrain, val: zVal,
			cfg: TrainConfig{Epochs: 0, BatchSize: 8, LR: 1e-3}},
	} {
		c.seed = 21
		c.check(t)
	}
}

// fuzzBytes hands out fuzz bytes, then zeros once they run out.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// value maps a byte to a finite float: 0x80 is -0, 0x7f is 0, anything
// else a multiple of 1/8 in [-16, 16).
func (r *fuzzBytes) value() float64 {
	switch b := r.next(); b {
	case 0x80:
		return math.Copysign(0, -1)
	case 0x7f:
		return 0
	default:
		return float64(int8(b)) / 8
	}
}

// FuzzTrainStep decodes a small network, dataset and recipe from the
// fuzz bytes and holds Train to refTrain bit for bit. Byte 0 sets the
// input width (1-4) and the number of hidden layers (0-2); each hidden
// layer takes a width byte and a flags byte, and the output layer a
// flags byte. The flags bytes are read and ignored: older corpus
// entries set -0 biases with them, which no network the program builds
// holds. Then come the recipe (epochs 0-3, batch size 1-6, learning
// rate, seed) and up to 12 training and 4 validation rows of input
// values and a label. Values stay finite, which is the domain the
// exactness argument covers.
func FuzzTrainStep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if runtime.GOARCH != "amd64" {
			t.Skipf("the dense reference may fuse multiply-adds on %s", runtime.GOARCH)
		}
		r := fuzzBytes(data)
		head := r.next()
		in := 1 + int(head%4)
		var widths []int
		for range int(head/4) % 3 {
			widths = append(widths, 1+int(r.next()%8))
			r.next() // flags
		}
		widths = append(widths, 1)
		r.next() // flags
		build := func(rng *stats.RNG) *Network {
			n := &Network{}
			width := in
			for _, out := range widths {
				n.Layers = append(n.Layers, NewDense(width, out, rng))
				width = out
			}
			return n
		}
		cfg := TrainConfig{Epochs: int(r.next() % 4), BatchSize: 1 + int(r.next()%6),
			LR: []float64{1e-3, 1e-2, 0.1}[r.next()%3]}
		seed := int64(r.next())
		rows := func(n int) Dataset {
			var ds Dataset
			for range n {
				x := make([]float64, in)
				for i := range x {
					x[i] = r.value()
				}
				ds.Add(x, r.value())
			}
			return ds
		}
		train := rows(1 + int(r.next()%12))
		val := rows(int(r.next() % 5))
		trainCase{name: "fuzz", build: build, train: train, val: val, cfg: cfg, seed: seed}.check(t)
	})
}
