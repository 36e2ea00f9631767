package nn

import (
	"github.com/robotack/robotack/internal/mat"
)

// Batched inference: the InferScratch ping-pong generalized from one
// input vector to a row-major batch of B of them. One InferBatch call
// replaces B Infer calls, turning B matrix-vector products per dense
// layer into one blocked matrix-matrix product (mat.MulBatchInto) that
// reuses each weight row across the batch. Row r of the result is
// bit-identical to Infer on row r of the input: the batched dense
// kernel adds each output's terms in the unbatched order, including
// the zero-input terms the unbatched kernel skips because they change
// no bits, and the element-wise layers apply the same per-element
// operations.

// BatchInferenceLayer is a layer with an allocation-free batched
// inference path. ForwardBatchInto reads rows input vectors of the
// given width from x (row-major, rows*width values), writes the rows
// output vectors into dst (row-major) and returns the output width.
// dst must not alias x and its capacity must cover rows*outWidth.
// Inference semantics match ForwardInto (dropout is the identity).
type BatchInferenceLayer interface {
	ForwardBatchInto(dst, x []float64, rows, width int) (outWidth int)
}

var (
	_ BatchInferenceLayer = (*Dense)(nil)
	_ BatchInferenceLayer = (*ReLU)(nil)
	_ BatchInferenceLayer = (*Dropout)(nil)
)

// ForwardBatchInto implements BatchInferenceLayer. width must equal
// the layer's input dimension.
func (d *Dense) ForwardBatchInto(dst, x []float64, rows, width int) int {
	if width != d.In {
		panic("nn: Dense.ForwardBatchInto width mismatch")
	}
	mat.MulBatchInto(dst, x, d.W, d.B, rows, d.In, d.Out)
	return d.Out
}

// ForwardBatchInto implements BatchInferenceLayer.
func (r *ReLU) ForwardBatchInto(dst, x []float64, rows, width int) int {
	n := rows * width
	out := dst[:n]
	for i, v := range x[:n] {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return width
}

// ForwardBatchInto implements BatchInferenceLayer. Inference-mode
// dropout is the identity.
func (d *Dropout) ForwardBatchInto(dst, x []float64, rows, width int) int {
	n := rows * width
	copy(dst[:n], x[:n])
	return width
}

// BatchScratch holds the ping-pong activation planes for InferBatch,
// sized at construction for a specific network and a maximum batch
// size. Like InferScratch it serves one goroutine at a time; the
// cross-episode inference batcher owns one per attack vector.
type BatchScratch struct {
	a, b []float64

	net      *Network // the network the cache below was computed for
	rows     int      // batch capacity
	width    int      // widest activation, per row
	inDim    int
	allBatch bool
}

// sizeFor (re)computes the cached structure. The fast path is one
// pointer compare; a full recompute happens only when the scratch is
// handed a different network or a larger batch — at construction and
// Reset in practice, never silently mid-episode.
func (s *BatchScratch) sizeFor(n *Network, rows int) {
	if s.net == n && rows <= s.rows {
		return
	}
	if rows < s.rows {
		rows = s.rows
	}
	s.net = n
	s.rows = rows
	s.width = n.maxWidth()
	s.inDim = n.inputDim()
	s.allBatch = true
	for _, l := range n.Layers {
		if _, ok := l.(BatchInferenceLayer); !ok {
			s.allBatch = false
			break
		}
	}
	if need := s.rows * s.width; len(s.a) < need {
		s.a = make([]float64, need)
		s.b = make([]float64, need)
	}
}

// NewBatchScratch allocates batched-inference scratch sized for this
// network's widest layer and up to maxRows input rows per call.
// InferBatch re-sizes it if handed a different network or more rows.
func (n *Network) NewBatchScratch(maxRows int) *BatchScratch {
	if maxRows < 1 {
		maxRows = 1
	}
	s := &BatchScratch{}
	s.sizeFor(n, maxRows)
	return s
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

// InferBatch runs the network in inference mode over rows input
// vectors at once: x holds the row-major rows*inputDim batch, and the
// returned slice (rows*outWidth values, row-major) aliases the scratch
// and is valid until the next InferBatch call. Row r of the output is
// bit-identical to Infer(s, x[r*inputDim:(r+1)*inputDim]) — the
// batched kernels add the unbatched terms in the same order — so
// callers may batch opportunistically without changing results. A
// stack containing a layer without a batched path falls back to
// row-wise Forward (allocating, still correct).
func (n *Network) InferBatch(s *BatchScratch, x []float64, rows int) []float64 {
	if rows <= 0 {
		return nil
	}
	if s == nil {
		s = n.NewBatchScratch(rows)
	}
	s.sizeFor(n, rows)
	if !s.allBatch {
		return n.forwardRows(s, x, rows)
	}
	cur := x
	width := s.inDim
	useA := true
	for _, l := range n.Layers {
		dst := s.a
		if !useA {
			dst = s.b
		}
		width = l.(BatchInferenceLayer).ForwardBatchInto(dst, cur, rows, width)
		cur = dst[:rows*width]
		useA = !useA
	}
	return cur
}

// forwardRows is InferBatch's fallback for stacks with a layer lacking
// ForwardBatchInto: each row runs through the allocating Forward path.
func (n *Network) forwardRows(s *BatchScratch, x []float64, rows int) []float64 {
	in := s.inDim
	var out []float64
	width := 0
	for r := 0; r < rows; r++ {
		y := n.Forward(x[r*in:(r+1)*in], false)
		if r == 0 {
			width = len(y)
			if cap(s.a) < rows*width {
				s.a = make([]float64, rows*width)
			}
			out = s.a[:rows*width]
		}
		copy(out[r*width:(r+1)*width], y)
	}
	return out
}
