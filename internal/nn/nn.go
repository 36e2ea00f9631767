// Package nn is a small feed-forward neural-network library implementing
// exactly what the paper's safety hijacker needs (§IV-B): fully
// connected layers, ReLU activations, dropout with rate 0.1, an MSE
// loss (Eq. 3), and the Adam optimizer, trained with a 60/40
// train/validation split.
package nn

import (
	"errors"
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/stats"
)

// Dense is a fully connected layer: y = Wx + b.
type Dense struct {
	In, Out int
	W       []float64 // row-major Out x In
	B       []float64

	gw, gb []float64
}

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

// backwardInto accumulates the parameter gradients for upstream
// gradient grad at layer input x, whose nonzero entries nz indexes in
// ascending order. If dx is set it also adds dL/dx at the entries nz
// indexes into in, which the caller zeroes. The layer below every
// Dense layer but the first is a hidden layer's ReLU and dropout, whose
// output is 0 at every other entry and whose backward pass writes a
// literal 0 there whatever dL/dx holds; nothing reads the first
// layer's dL/dx.
func (d *Dense) backwardInto(in, grad, x []float64, nz []int32, dx bool) {
	x = x[:d.In]
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
		if dx {
			for _, i := range nz {
				grow[i] += g * x[i]
				in[i] += g * row[i]
			}
			continue
		}
		for _, i := range nz {
			grow[i] += g * x[i]
		}
	}
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

// dropoutRate is the paper's dropout rate, and dropScale the inverted
// dropout's scale on a kept unit. The constants are typed, so
// 1/(1-dropoutRate) rounds each step as the same float64 arithmetic at
// run time does.
const (
	dropoutRate float64 = 0.1
	dropScale           = 1 / (1 - dropoutRate)
)

// reluDropout is a hidden layer's ReLU and then its inverted dropout,
// in place on the layer's activation h. keep holds one draw per unit:
// a unit passes, scaled by dropScale, where it is active (h > 0) and
// kept, and becomes +0 elsewhere. On return keep marks the units that
// passed.
func reluDropout(h []float64, keep []bool) {
	keep = keep[:len(h)]
	for i, v := range h {
		if keep[i] && v > 0 {
			h[i] = v * dropScale
		} else {
			keep[i] = false
			h[i] = 0
		}
	}
}

// reluDropoutBack is reluDropout's backward pass, in place on dL/dh:
// the units keep marks as passed scale by dropScale, the rest become +0.
func reluDropoutBack(grad []float64, keep []bool) {
	keep = keep[:len(grad)]
	for i, g := range grad {
		if keep[i] {
			grad[i] = g * dropScale
		} else {
			grad[i] = 0
		}
	}
}

// Network is the safety hijacker's regressor: dense layers with a ReLU
// after every one but the last and, in training, an inverted dropout of
// rate 0.1 after each ReLU. The last layer is linear.
type Network struct {
	Layers []*Dense
}

// NewRegressor builds the paper's safety-hijacker architecture: three
// hidden layers (100, 100, 50) with ReLU and dropout 0.1, and a linear
// scalar output.
func NewRegressor(inputDim int, rng *stats.RNG) *Network {
	return &Network{Layers: []*Dense{
		NewDense(inputDim, 100, rng),
		NewDense(100, 100, rng),
		NewDense(100, 50, rng),
		NewDense(50, 1, rng),
	}}
}

// gatherBlock is how many inputs Dense.ForwardInto gathers at a time.
// Its index buffer lives on the stack, so the kernel keeps no state in
// the layer.
const gatherBlock = 128

// negZeroBits is the bit pattern of -0.
const negZeroBits = 1 << 63

// ForwardInto computes y = Wx + b into dst and returns dst re-sliced to
// the output width. dst must not alias x. It sums only the nonzero
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

// InferScratch holds the ping-pong activation buffers for Infer and the
// network they were sized for. One scratch serves one goroutine;
// concurrent episodes each own one, and may share the network.
type InferScratch struct {
	a, b []float64
	net  *Network
}

// sizeFor sizes the buffers for n. The per-call fast path is a single
// pointer compare; the width scan runs only at construction or when
// the scratch is rebound to a different network, so a warm scratch
// never grows mid-episode.
func (s *InferScratch) sizeFor(n *Network) {
	if s.net == n {
		return
	}
	s.net = n
	width := 1
	for _, d := range n.Layers {
		width = max(width, d.Out)
	}
	if len(s.a) < width {
		s.a = make([]float64, width)
		s.b = make([]float64, width)
	}
}

// NewInferScratch allocates scratch buffers sized for this network's
// widest layer. The scratch may be reused across calls; Infer rebinds
// (and if needed re-sizes) it if handed a different network.
func (n *Network) NewInferScratch() *InferScratch {
	s := &InferScratch{}
	s.sizeFor(n)
	return s
}

// Infer runs the network in inference mode, where dropout is the
// identity: each layer's ForwardInto into s's ping-pong buffers, then
// the ReLU in place on every hidden layer. A warm call allocates
// nothing. It reads only the layers' weights and biases, so goroutines
// with a scratch each may share n. The returned slice aliases the
// scratch and is valid until the next Infer call.
func (n *Network) Infer(s *InferScratch, x []float64) []float64 {
	s.sizeFor(n)
	last := len(n.Layers) - 1
	dst, spare := s.a, s.b
	for i, d := range n.Layers {
		x = d.ForwardInto(dst, x)
		if i < last {
			for j, v := range x {
				if !(v > 0) {
					x[j] = 0
				}
			}
		}
		dst, spare = spare, dst
	}
	return x
}

// Adam's hyperparameters, the standard ones. They are typed constants,
// so 1-beta1 and 1-beta2 round as the same float64 arithmetic at run
// time does.
const (
	beta1   float64 = 0.9
	beta2   float64 = 0.999
	adamEps float64 = 1e-8
)

// Adam is the Adam optimizer (Kingma & Ba) over a network's parameters.
type Adam struct {
	LR float64

	m, v [][]float64
	t    int

	// net is the network params and grads were collected from: Step
	// collects them once per network, not once per step.
	net           *Network
	params, grads [][]float64
}

// NewAdam creates an Adam optimizer with standard hyperparameters.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr}
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
	c1 := 1 - math.Pow(beta1, float64(a.t))
	c2 := 1 - math.Pow(beta2, float64(a.t))
	inv := 1 / float64(batchSize)
	lr := a.LR
	for i, p := range a.params {
		g := a.grads[i][:len(p)]
		m, v := a.m[i][:len(p)], a.v[i][:len(p)]
		for j := range p {
			gj := g[j] * inv
			m[j] = beta1*m[j] + (1-beta1)*gj
			v[j] = beta2*v[j] + (1-beta2)*gj*gj
			p[j] -= lr * (m[j] / c1) / (math.Sqrt(v[j]/c2) + adamEps)
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
	for _, d := range n.Layers {
		a.params = append(a.params, d.W, d.B)
		a.grads = append(a.grads, d.gw, d.gb)
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
	for i, x := range d.X {
		if len(n.Layers) > 0 && len(x) != n.Layers[0].In {
			return fmt.Errorf("nn: %s row %d has width %d, network input is %d", name, i, len(x), n.Layers[0].In)
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

// trainSlot is one layer's training buffers: its input for the current
// sample (aliasing the slot below's out, or the dataset row) and the
// indices of that input's nonzero entries, its activation, its input
// gradient (none for the first layer) and, for a hidden layer, its
// dropout mask.
type trainSlot struct {
	x, out, gin []float64
	nz          []int32
	keep        []bool
}

// NewTrainer prepares to fit n on train with MSE loss and evaluate it on
// val, drawing minibatch orders and dropout masks from rng. It rejects
// an empty training set, an invalid cfg and rows of the wrong width, as
// Train does.
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
	for i, d := range n.Layers {
		s := &t.slots[i]
		s.out, s.nz = make([]float64, d.Out), make([]int32, 0, d.In)
		if i > 0 {
			s.gin = make([]float64, d.In)
		}
		if i < len(n.Layers)-1 {
			s.keep = make([]bool, d.Out)
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
	order := t.rng.Perm(t.train.Len())
	for start := 0; start < len(order); start += t.cfg.BatchSize {
		end := min(start+t.cfg.BatchSize, len(order))
		for _, g := range t.opt.grads {
			clear(g)
		}
		for _, j := range order[start:end] {
			out := t.forward(t.train.X[j])
			// d(MSE)/d(out) = 2*(out - y)
			t.loss[0] = 2 * (out[0] - t.train.Y[j])
			t.backward(t.loss[:])
		}
		t.opt.Step(t.n, end-start)
	}
	return t.epoch < t.cfg.Epochs
}

// forward runs the network in training mode on x into the slots. Each
// hidden layer draws one Bernoulli(dropoutRate) per unit, in unit
// order, whatever the unit's sign, and drops the unit on true.
func (t *Trainer) forward(x []float64) []float64 {
	for i, d := range t.n.Layers {
		s := &t.slots[i]
		s.x = x
		x = d.ForwardInto(s.out, x)
		if s.keep != nil {
			for j := range s.keep {
				s.keep[j] = !t.rng.Bernoulli(dropoutRate)
			}
			reluDropout(x, s.keep)
		}
	}
	return x
}

// backward propagates grad, dL/d(output) of the sample forward last
// ran, down the slots, accumulating every layer's parameter gradients.
func (t *Trainer) backward(grad []float64) {
	for i := len(t.n.Layers) - 1; i >= 0; i-- {
		s := &t.slots[i]
		if s.keep != nil {
			reluDropoutBack(grad, s.keep)
		}
		s.nz = gather(s.nz[:0], s.x, 0, len(s.x), false)
		clear(s.gin)
		t.n.Layers[i].backwardInto(s.gin, grad, s.x, s.nz, s.gin != nil)
		grad = s.gin
	}
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
