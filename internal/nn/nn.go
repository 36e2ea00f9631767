// Package nn is a small feed-forward neural-network library implementing
// exactly what the paper's safety hijacker needs (§IV-B): fully
// connected layers, ReLU activations, dropout with rate 0.1, an MSE
// loss (Eq. 3), and the Adam optimizer, trained with a 60/40
// train/validation split.
package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"

	"github.com/robotack/robotack/internal/stats"
)

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output. train enables stochastic
	// behaviour (dropout).
	Forward(x []float64, train bool) []float64
	// Backward consumes dL/dOutput and returns dL/dInput, accumulating
	// parameter gradients internally.
	Backward(grad []float64) []float64
	// Params returns parameter and gradient slices (paired); empty for
	// parameterless layers.
	Params() (params, grads [][]float64)
}

// Dense is a fully connected layer: y = Wx + b.
type Dense struct {
	In, Out int
	W       []float64 // row-major Out x In
	B       []float64

	gw, gb []float64
	x      []float64
}

var _ Layer = (*Dense)(nil)

// NewDense creates a dense layer with He-initialized weights.
func NewDense(in, out int, rng *stats.RNG) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
	}
	scale := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = rng.Normal(0, scale)
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64, _ bool) []float64 {
	d.x = append(d.x[:0], x...)
	return d.ForwardInto(make([]float64, d.Out), x)
}

// Backward implements Layer.
func (d *Dense) Backward(grad []float64) []float64 {
	nz := gather(make([]int32, 0, len(d.x)), d.x, 0, len(d.x), false)
	return d.backwardInto(make([]float64, d.In), grad, d.x, nz, dxAll)
}

// dxMode says which entries of a Dense layer's input gradient dL/dx
// the layers below it read in training.
type dxMode uint8

const (
	// dxAll: every entry.
	dxAll dxMode = iota
	// dxNonzero: only the entries where the layer input x is nonzero.
	// The layer directly below is a ReLU, or a ReLU followed by
	// dropouts, so x[i] == 0 means unit i was inactive or dropped, and
	// their backward passes write a literal 0 at i whatever dL/dx[i] is.
	dxNonzero
	// dxNone: no entry; no layer below has parameters.
	dxNone
)

// dxFor decides the dxMode of a Dense layer whose lower layers are
// below, in stack order.
func dxFor(below []Layer) dxMode {
	mode := dxNone
	for _, l := range below {
		switch l.(type) {
		case *ReLU, *Dropout:
		default:
			mode = dxAll
		}
	}
	if mode == dxNone {
		return dxNone
	}
	i := len(below) - 1
	for ; i >= 0; i-- {
		if _, ok := below[i].(*Dropout); !ok {
			break
		}
	}
	if _, ok := below[i].(*ReLU); ok {
		return dxNonzero
	}
	return dxAll
}

// backwardInto accumulates the parameter gradients for upstream
// gradient grad at layer input x, whose nonzero entries nz indexes in
// ascending order, and adds the entries of dL/dx that dx selects into
// in, which the caller zeroes.
func (d *Dense) backwardInto(in, grad, x []float64, nz []int32, dx dxMode) []float64 {
	x = x[:d.In]
	in = in[:len(x)]
	for o := 0; o < d.Out; o++ {
		g := grad[o]
		if g == 0 {
			// An exactly-zero upstream gradient (a ReLU-inactive or
			// dropped unit: about half of each hidden layer in training)
			// would add ±0 to every accumulator below. Accumulators
			// start at +0, and a float64 sum that starts at +0 is never
			// -0 (+0 + -0 is +0, exact cancellation rounds to +0), so
			// adding ±0 leaves each one unchanged bit for bit: skipping
			// the row is exact for finite inputs and weights. The same
			// argument skips the weight-gradient terms of zero inputs.
			continue
		}
		d.gb[o] += g
		row := d.W[o*d.In : (o+1)*d.In][:len(x)]
		grow := d.gw[o*d.In : (o+1)*d.In][:len(x)]
		if dx == dxNonzero {
			for _, i := range nz {
				grow[i] += g * x[i]
				in[i] += g * row[i]
			}
			continue
		}
		for _, i := range nz {
			grow[i] += g * x[i]
		}
		if dx == dxAll {
			for i, w := range row {
				in[i] += g * w
			}
		}
	}
	return in
}

// gather appends to idx the indices in [lo, hi) at which x is nonzero
// (every index, if all is set), in ascending order. NaN is nonzero.
func gather(idx []int32, x []float64, lo, hi int, all bool) []int32 {
	for i := lo; i < hi; i++ {
		if all || x[i] != 0 {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// Params implements Layer.
func (d *Dense) Params() (params, grads [][]float64) {
	return [][]float64{d.W, d.B}, [][]float64{d.gw, d.gb}
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// Forward implements Layer.
func (r *ReLU) Forward(x []float64, _ bool) []float64 {
	r.mask = resize(r.mask, len(x))
	return reluInto(make([]float64, len(x)), r.mask, x)
}

// Backward implements Layer.
func (r *ReLU) Backward(grad []float64) []float64 {
	return reluBackInto(make([]float64, len(grad)), grad, r.mask)
}

// reluInto writes max(x, 0) into out and records which units are
// active in mask.
func reluInto(out []float64, mask []bool, x []float64) []float64 {
	out, mask = out[:len(x)], mask[:len(x)]
	for i, v := range x {
		if v > 0 {
			out[i] = v
			mask[i] = true
		} else {
			out[i] = 0
			mask[i] = false
		}
	}
	return out
}

// reluBackInto passes grad through the units mask marks active.
func reluBackInto(out, grad []float64, mask []bool) []float64 {
	out, mask = out[:len(grad)], mask[:len(grad)]
	for i, g := range grad {
		if mask[i] {
			out[i] = g
		} else {
			out[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() (params, grads [][]float64) { return nil, nil }

// Dropout zeroes activations with probability Rate during training
// (inverted dropout: survivors are scaled by 1/(1-Rate)).
type Dropout struct {
	Rate float64
	rng  *stats.RNG
	keep []bool
}

var _ Layer = (*Dropout)(nil)

// NewDropout creates a dropout layer.
func NewDropout(rate float64, rng *stats.RNG) *Dropout {
	return &Dropout{Rate: rate, rng: rng}
}

// Forward implements Layer.
func (d *Dropout) Forward(x []float64, train bool) []float64 {
	out := make([]float64, len(x))
	if !train || d.Rate <= 0 {
		copy(out, x)
		d.keep = nil
		return out
	}
	d.keep = resize(d.keep, len(x))
	return d.dropInto(out, d.keep, x)
}

// Backward implements Layer.
func (d *Dropout) Backward(grad []float64) []float64 {
	out := make([]float64, len(grad))
	if d.keep == nil {
		copy(out, grad)
		return out
	}
	return d.dropBackInto(out, grad, d.keep)
}

// dropInto draws one Bernoulli(Rate) per unit, in unit order, zeroing
// the dropped units and scaling the kept ones (recorded in keep) into
// out.
func (d *Dropout) dropInto(out []float64, keep []bool, x []float64) []float64 {
	out, keep = out[:len(x)], keep[:len(x)]
	scale := 1 / (1 - d.Rate)
	for i, v := range x {
		if d.rng.Bernoulli(d.Rate) {
			keep[i] = false
			out[i] = 0
		} else {
			keep[i] = true
			out[i] = v * scale
		}
	}
	return out
}

// dropBackInto passes grad, scaled, through the units keep marks kept.
func (d *Dropout) dropBackInto(out, grad []float64, keep []bool) []float64 {
	out, keep = out[:len(grad)], keep[:len(grad)]
	scale := 1 / (1 - d.Rate)
	for i, g := range grad {
		if keep[i] {
			out[i] = g * scale
		} else {
			out[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (d *Dropout) Params() (params, grads [][]float64) { return nil, nil }

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer
}

// NewRegressor builds the paper's safety-hijacker architecture: three
// hidden layers (100, 100, 50) with ReLU and dropout 0.1, and a linear
// scalar output.
func NewRegressor(inputDim int, rng *stats.RNG) *Network {
	return &Network{Layers: []Layer{
		NewDense(inputDim, 100, rng),
		&ReLU{},
		NewDropout(0.1, rng),
		NewDense(100, 100, rng),
		&ReLU{},
		NewDropout(0.1, rng),
		NewDense(100, 50, rng),
		&ReLU{},
		NewDropout(0.1, rng),
		NewDense(50, 1, rng),
	}}
}

// Clone returns an independent inference copy of the network: dense
// weights and biases are deep-copied and every layer gets fresh
// forward-pass scratch state. Layers keep per-call activation caches
// (Dense.x, ReLU.mask), so a single Network must not be shared across
// goroutines — parallel episode runners clone the trained oracle nets
// instead. Clones carry no dropout RNG; they are for inference
// (train=false) only.
func (n *Network) Clone() *Network {
	out := &Network{Layers: make([]Layer, 0, len(n.Layers))}
	for _, l := range n.Layers {
		switch l := l.(type) {
		case *Dense:
			d := &Dense{
				In: l.In, Out: l.Out,
				W:  append([]float64(nil), l.W...),
				B:  append([]float64(nil), l.B...),
				gw: make([]float64, len(l.gw)),
				gb: make([]float64, len(l.gb)),
			}
			out.Layers = append(out.Layers, d)
		case *ReLU:
			out.Layers = append(out.Layers, &ReLU{})
		case *Dropout:
			out.Layers = append(out.Layers, &Dropout{Rate: l.Rate})
		default:
			panic(fmt.Sprintf("nn: Clone: unsupported layer %T", l))
		}
	}
	return out
}

// Forward runs the network. train enables dropout.
func (n *Network) Forward(x []float64, train bool) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// InferenceLayer is a layer with an allocation-free inference path.
// ForwardInto computes the layer's inference output (train=false
// semantics: dropout is the identity) into dst and returns dst
// re-sliced to the output length. dst must not alias x, and its
// capacity must cover the layer's output width. The arithmetic is the
// same sequence of float64 operations as Forward(x, false), so the
// two paths produce bit-identical outputs.
type InferenceLayer interface {
	ForwardInto(dst, x []float64) []float64
}

var (
	_ InferenceLayer = (*Dense)(nil)
	_ InferenceLayer = (*ReLU)(nil)
	_ InferenceLayer = (*Dropout)(nil)
)

// gatherBlock is how many inputs Dense.ForwardInto gathers at a time.
// Its index buffer lives on the stack, so the kernel keeps no state in
// the layer.
const gatherBlock = 128

// negZeroBits is the bit pattern of -0.
const negZeroBits = 1 << 63

// ForwardInto implements InferenceLayer. It sums only the nonzero
// inputs, which is exact for finite weights: a zero input adds ±0, and
// adding ±0 leaves a float64 sum unchanged unless the sum is -0. A sum
// that starts at a bias other than -0 never becomes -0 (only -0 + -0
// is -0, and exact cancellation rounds to +0), so a layer holding a -0
// bias keeps the dense sum. NaN inputs are nonzero and always summed.
// Four outputs share each pass over the gathered inputs, and each
// output still adds its terms one at a time in ascending input order.
func (d *Dense) ForwardInto(dst, x []float64) []float64 {
	out := dst[:d.Out]
	x = x[:d.In]
	copy(out, d.B)
	dense := false
	for _, b := range d.B {
		if math.Float64bits(b) == negZeroBits {
			dense = true
			break
		}
	}
	var buf [gatherBlock]int32
	for lo := 0; lo < len(x); lo += gatherBlock {
		d.addRows(out, x, gather(buf[:0], x, lo, min(lo+gatherBlock, len(x)), dense))
	}
	return out
}

// addRows adds W[o][i]*x[i] to out[o] for every output o and every i
// in idx, in idx order.
func (d *Dense) addRows(out, x []float64, idx []int32) {
	in := d.In
	o := 0
	for ; o+4 <= len(out); o += 4 {
		r0 := d.W[o*in : (o+1)*in]
		r1 := d.W[(o+1)*in : (o+2)*in]
		r2 := d.W[(o+2)*in : (o+3)*in]
		r3 := d.W[(o+3)*in : (o+4)*in]
		s0, s1, s2, s3 := out[o], out[o+1], out[o+2], out[o+3]
		for _, i := range idx {
			xi := x[i]
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < len(out); o++ {
		row := d.W[o*in : (o+1)*in]
		s := out[o]
		for _, i := range idx {
			s += row[i] * x[i]
		}
		out[o] = s
	}
}

// ForwardInto implements InferenceLayer.
func (r *ReLU) ForwardInto(dst, x []float64) []float64 {
	out := dst[:len(x)]
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

// ForwardInto implements InferenceLayer. Inference-mode dropout is the
// identity.
func (d *Dropout) ForwardInto(dst, x []float64) []float64 {
	out := dst[:len(x)]
	copy(out, x)
	return out
}

// InferScratch holds the ping-pong activation buffers for Infer, plus
// the cached structural facts of the network it was sized for (widest
// activation, whether every layer has an inference path) so the
// per-prediction call does no type-assertion rescans. One scratch
// serves one goroutine; concurrent episodes each own one.
type InferScratch struct {
	a, b []float64

	net      *Network // the network the cache below was computed for
	width    int
	allInfer bool
}

// sizeFor (re)computes the cached structure for n. The per-call fast
// path is a single pointer compare; the full rescan runs only at
// construction or when the scratch is rebound to a different network —
// sizing is hoisted out of the prediction loop, so a warm scratch can
// never silently grow (or, worse, stay undersized for a same-depth but
// wider network, which the historical layer-count check allowed)
// mid-episode.
func (s *InferScratch) sizeFor(n *Network) {
	if s.net == n {
		return
	}
	s.net = n
	s.width = n.maxWidth()
	s.allInfer = true
	for _, l := range n.Layers {
		if _, ok := l.(InferenceLayer); !ok {
			s.allInfer = false
			break
		}
	}
	if len(s.a) < s.width {
		s.a = make([]float64, s.width)
		s.b = make([]float64, s.width)
	}
}

// maxWidth returns the widest activation the network produces.
func (n *Network) maxWidth() int {
	w := 1
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			if d.In > w {
				w = d.In
			}
			if d.Out > w {
				w = d.Out
			}
		}
	}
	return w
}

// inputDim returns the first dense layer's input width (the network's
// input dimensionality), or zero for a dense-free stack.
func (n *Network) inputDim() int {
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			return d.In
		}
	}
	return 0
}

// NewInferScratch allocates scratch buffers sized for this network's
// widest layer. The scratch may be reused across calls; Infer rebinds
// (and if needed re-sizes) it if handed a different network.
func (n *Network) NewInferScratch() *InferScratch {
	s := &InferScratch{}
	s.sizeFor(n)
	return s
}

// Infer runs the network in inference mode writing every activation
// into s's ping-pong buffers: zero heap allocations after the scratch
// is warm. The returned slice aliases the scratch and is valid until
// the next Infer call. Outputs are bit-identical to Forward(x, false).
// A stack containing a layer without an inference path falls back to
// Forward (allocating, still correct).
func (n *Network) Infer(s *InferScratch, x []float64) []float64 {
	if s == nil {
		return n.Forward(x, false)
	}
	s.sizeFor(n)
	if !s.allInfer {
		return n.Forward(x, false)
	}
	cur := x
	useA := true
	for _, l := range n.Layers {
		dst := s.a
		if !useA {
			dst = s.b
		}
		cur = l.(InferenceLayer).ForwardInto(dst, cur)
		useA = !useA
	}
	return cur
}

// Predict runs the network in inference mode and returns the scalar
// output.
func (n *Network) Predict(x []float64) float64 {
	return n.Forward(x, false)[0]
}

// Backward propagates an output gradient through the stack.
func (n *Network) Backward(grad []float64) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
}

// ZeroGrads clears accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		_, grads := l.Params()
		for _, g := range grads {
			clear(g)
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) over a network's parameters.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	m, v [][]float64
	t    int

	// net is the network params and grads were collected from: Step
	// collects them once per network, not once per step.
	net           *Network
	params, grads [][]float64
}

// NewAdam creates an Adam optimizer with standard hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update using the gradients accumulated in n, scaled
// by 1/batchSize.
func (a *Adam) Step(n *Network, batchSize int) {
	a.bind(n)
	if a.m == nil {
		a.m = make([][]float64, len(a.params))
		a.v = make([][]float64, len(a.params))
		for i, p := range a.params {
			a.m[i] = make([]float64, len(p))
			a.v[i] = make([]float64, len(p))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	inv := 1 / float64(batchSize)
	// Hoisted hyperparameters: the same values, so the same arithmetic,
	// without reloading them through a on every element.
	lr, b1, b2, eps := a.LR, a.Beta1, a.Beta2, a.Eps
	nb1, nb2 := 1-b1, 1-b2
	for i, p := range a.params {
		g := a.grads[i][:len(p)]
		m, v := a.m[i][:len(p)], a.v[i][:len(p)]
		for j := range p {
			gj := g[j] * inv
			m[j] = b1*m[j] + nb1*gj
			v[j] = b2*v[j] + nb2*gj*gj
			p[j] -= lr * (m[j] / c1) / (math.Sqrt(v[j]/c2) + eps)
		}
	}
}

// bind collects n's parameter and gradient slices, once per network.
func (a *Adam) bind(n *Network) {
	if a.net == n {
		return
	}
	a.net = n
	a.params, a.grads = a.params[:0], a.grads[:0]
	for _, l := range n.Layers {
		p, g := l.Params()
		a.params = append(a.params, p...)
		a.grads = append(a.grads, g...)
	}
}

// Dataset is a supervised regression dataset.
type Dataset struct {
	X [][]float64
	Y []float64
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Add appends a sample.
func (d *Dataset) Add(x []float64, y float64) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Split partitions the dataset into train/validation with the given
// train fraction (the paper uses 0.6), shuffled by rng.
func (d *Dataset) Split(trainFrac float64, rng *stats.RNG) (train, val Dataset) {
	idx := rng.Perm(d.Len())
	nTrain := int(trainFrac * float64(d.Len()))
	for i, j := range idx {
		if i < nTrain {
			train.Add(d.X[j], d.Y[j])
		} else {
			val.Add(d.X[j], d.Y[j])
		}
	}
	return train, val
}

// TrainConfig parametrizes Train.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
}

// DefaultTrainConfig returns the training recipe used for the safety
// hijacker.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 60, BatchSize: 32, LR: 1e-3}
}

// Result reports training metrics.
type Result struct {
	TrainMSE float64
	ValMSE   float64
	ValMAE   float64
}

// validate rejects recipes that cannot train: a batch size below 1
// never advances through the data.
func (c TrainConfig) validate() error {
	switch {
	case c.BatchSize < 1:
		return fmt.Errorf("nn: batch size %d, want at least 1", c.BatchSize)
	case c.Epochs < 0:
		return fmt.Errorf("nn: negative epochs %d", c.Epochs)
	case !(c.LR > 0):
		return fmt.Errorf("nn: learning rate %v, want a positive number", c.LR)
	}
	return nil
}

// checkData rejects a dataset whose labels do not pair up with its rows
// or whose rows are not as wide as the network's input.
func (n *Network) checkData(name string, d Dataset) error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("nn: %s set has %d rows but %d labels", name, len(d.X), len(d.Y))
	}
	in := n.inputDim()
	for i, x := range d.X {
		if in > 0 && len(x) != in {
			return fmt.Errorf("nn: %s row %d has width %d, network input is %d", name, i, len(x), in)
		}
	}
	return nil
}

// Train fits the network on train with MSE loss (Eq. 3 of the paper)
// and evaluates on val: the loop over a Trainer's epochs. It rejects an
// invalid cfg and rows of the wrong width.
func Train(n *Network, train, val Dataset, cfg TrainConfig, rng *stats.RNG) (Result, error) {
	t, err := NewTrainer(n, train, val, cfg, rng)
	if err != nil {
		return Result{}, err
	}
	for t.Epoch() {
	}
	return t.Result(), nil
}

// Trainer fits a network one epoch at a time. NewTrainer validates the
// recipe and data, each Epoch call runs the next epoch, and Result
// evaluates. Every activation, gradient and dropout mask lives in
// buffers the Trainer allocates once, so the per-sample loop does not
// allocate. The float64 operations and the draws from rng run in the
// same order however the epochs are spread over time, so the weights
// depend only on how many epochs ran. A Trainer may move between
// goroutines between calls if the hand-off is synchronized, and serves
// one goroutine at a time.
type Trainer struct {
	n          *Network
	train, val Dataset
	cfg        TrainConfig
	rng        *stats.RNG
	opt        *Adam
	slots      []trainSlot
	epoch      int
	loss       [1]float64 // dL/d(output) of the current sample
}

// NewTrainer prepares to fit n on train with MSE loss and evaluate it on
// val, drawing minibatch orders from rng. It rejects an empty training
// set, an invalid cfg and rows of the wrong width, as Train does.
func NewTrainer(n *Network, train, val Dataset, cfg TrainConfig, rng *stats.RNG) (*Trainer, error) {
	if train.Len() == 0 {
		return nil, errors.New("nn: empty training set")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := n.checkData("training", train); err != nil {
		return nil, err
	}
	if err := n.checkData("validation", val); err != nil {
		return nil, err
	}
	t := &Trainer{n: n, train: train, val: val, cfg: cfg, rng: rng,
		opt: NewAdam(cfg.LR), slots: make([]trainSlot, len(n.Layers))}
	t.opt.bind(n)
	for i, l := range n.Layers {
		if _, ok := l.(*Dense); ok {
			t.slots[i].dx = dxFor(n.Layers[:i])
		}
	}
	return t, nil
}

// Epoch runs the next epoch, if one remains: a permutation of the
// training set, then per minibatch a forward and backward pass for
// each sample and one Adam step. It reports whether epochs remain.
func (t *Trainer) Epoch() bool {
	if t.epoch >= t.cfg.Epochs {
		return false
	}
	t.epoch++
	layers := t.n.Layers
	order := t.rng.Perm(t.train.Len())
	for start := 0; start < len(order); start += t.cfg.BatchSize {
		end := min(start+t.cfg.BatchSize, len(order))
		for _, g := range t.opt.grads {
			clear(g)
		}
		for _, j := range order[start:end] {
			out := t.train.X[j]
			for i, l := range layers {
				out = t.slots[i].forward(l, out)
			}
			// d(MSE)/d(out) = 2*(out - y)
			t.loss[0] = 2 * (out[0] - t.train.Y[j])
			grad := t.loss[:]
			for i := len(layers) - 1; i >= 0; i-- {
				grad = t.slots[i].backward(layers[i], grad)
			}
		}
		t.opt.Step(t.n, end-start)
	}
	return t.epoch < t.cfg.Epochs
}

// Result evaluates the network as it stands: its mean squared error on
// the training set and its mean squared and absolute errors on the
// validation set.
func (t *Trainer) Result() Result {
	s := t.n.NewInferScratch()
	var res Result
	res.TrainMSE, _ = evaluate(t.n, s, t.train)
	res.ValMSE, res.ValMAE = evaluate(t.n, s, t.val)
	return res
}

// trainSlot is one layer's training buffers: its input for the current
// sample (aliasing the previous slot's out, or the dataset row), its
// activation, its input gradient and its ReLU or dropout mask. Each
// buffer is sized on the first sample and reused for every later one.
// A Dense slot also keeps the indices of its input's nonzero entries
// and how much of its input gradient the layers below read.
type trainSlot struct {
	x, out, gin []float64
	mask        []bool
	nz          []int32
	dx          dxMode
}

// forward runs l in training mode into the slot's buffers. Layer types
// other than Dense, ReLU and Dropout run their own allocating Forward.
func (s *trainSlot) forward(l Layer, x []float64) []float64 {
	switch l := l.(type) {
	case *Dense:
		s.x = x
		s.out = resize(s.out, l.Out)
		return l.ForwardInto(s.out, x)
	case *ReLU:
		s.out, s.mask = resize(s.out, len(x)), resize(s.mask, len(x))
		return reluInto(s.out, s.mask, x)
	case *Dropout:
		if l.Rate <= 0 {
			return x
		}
		s.out, s.mask = resize(s.out, len(x)), resize(s.mask, len(x))
		return l.dropInto(s.out, s.mask, x)
	default:
		return l.Forward(x, true)
	}
}

// backward propagates grad through l, the layer forward last ran.
func (s *trainSlot) backward(l Layer, grad []float64) []float64 {
	switch l := l.(type) {
	case *Dense:
		s.gin = resize(s.gin, l.In)
		clear(s.gin)
		s.nz = gather(resize(s.nz, l.In)[:0], s.x, 0, len(s.x), false)
		return l.backwardInto(s.gin, grad, s.x, s.nz, s.dx)
	case *ReLU:
		s.gin = resize(s.gin, len(grad))
		return reluBackInto(s.gin, grad, s.mask)
	case *Dropout:
		if l.Rate <= 0 {
			return grad
		}
		s.gin = resize(s.gin, len(grad))
		return l.dropBackInto(s.gin, grad, s.mask)
	default:
		return l.Backward(grad)
	}
}

// resize returns b with length n, reallocating only when its capacity
// is short.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// evaluate returns the network's mean squared and mean absolute error
// on d (zeros for an empty d), predicting through s.
func evaluate(n *Network, s *InferScratch, d Dataset) (mse, mae float64) {
	if d.Len() == 0 {
		return 0, 0
	}
	for i, x := range d.X {
		e := n.Infer(s, x)[0] - d.Y[i]
		mse += e * e
		mae += math.Abs(e)
	}
	k := float64(d.Len())
	return mse / k, mae / k
}

// snapshot is the serialized form of a network's dense layers.
type snapshot struct {
	Dims    []int       `json:"dims"`
	Weights [][]float64 `json:"weights"`
	Biases  [][]float64 `json:"biases"`
	Dropout float64     `json:"dropout"`
}

// Save writes the network weights to a JSON file.
func (n *Network) Save(path string) error {
	snap := snapshot{}
	for _, l := range n.Layers {
		if d, ok := l.(*Dense); ok {
			if len(snap.Dims) == 0 {
				snap.Dims = append(snap.Dims, d.In)
			}
			snap.Dims = append(snap.Dims, d.Out)
			snap.Weights = append(snap.Weights, d.W)
			snap.Biases = append(snap.Biases, d.B)
		}
		if dr, ok := l.(*Dropout); ok {
			snap.Dropout = dr.Rate
		}
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("nn save: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a network saved by Save. The reconstructed network uses
// ReLU+dropout between dense layers, matching NewRegressor's topology.
func Load(path string, rng *stats.RNG) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("nn load: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("nn load: %w", err)
	}
	if len(snap.Dims) < 2 || len(snap.Weights) != len(snap.Dims)-1 {
		return nil, errors.New("nn load: malformed snapshot")
	}
	n := &Network{}
	for i := 0; i < len(snap.Weights); i++ {
		d := NewDense(snap.Dims[i], snap.Dims[i+1], rng)
		if len(snap.Weights[i]) != len(d.W) || len(snap.Biases[i]) != len(d.B) {
			return nil, errors.New("nn load: dimension mismatch")
		}
		copy(d.W, snap.Weights[i])
		copy(d.B, snap.Biases[i])
		n.Layers = append(n.Layers, d)
		if i < len(snap.Weights)-1 {
			n.Layers = append(n.Layers, &ReLU{}, NewDropout(snap.Dropout, rng))
		}
	}
	return n, nil
}
