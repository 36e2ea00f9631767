package mat

import "fmt"

// MulBatchInto is the batched inference kernel behind nn's
// Network.InferBatch: it computes a row-major batch of dense-layer
// outputs, dst[r][o] = bias[o] + sum_i w[o][i] * x[r][i], for rows
// input vectors at once (x is rows x in, w is out x in, dst is
// rows x out).
//
// The kernel is blocked for the register file and the cache: rows are
// processed four at a time so each weight row loaded from memory is
// reused across four accumulators, and the inner loop over the input
// dimension is unrolled four wide. Bit-identity with the unbatched
// path is part of the contract: every (row, output) pair starts at the
// bias and accumulates every term into a single float64 in ascending
// input order. nn.Dense.ForwardInto adds the same terms in the same
// order except those of zero inputs, which add ±0 and so change no
// bits (it keeps them for a layer holding a -0 bias), so a batched row
// equals the unbatched result bit for bit. (The unroll issues the four
// products as four separate sequential adds; Go guarantees no
// floating-point reassociation.)
func MulBatchInto(dst, x, w, bias []float64, rows, in, out int) {
	if rows < 0 || in < 0 || out < 0 ||
		len(x) < rows*in || len(w) < out*in || len(bias) < out || len(dst) < rows*out {
		panic(fmt.Sprintf("mat: MulBatchInto shape mismatch: rows=%d in=%d out=%d (len x=%d w=%d bias=%d dst=%d)",
			rows, in, out, len(x), len(w), len(bias), len(dst)))
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		x0 := x[r*in : r*in+in : r*in+in]
		x1 := x[(r+1)*in : (r+1)*in+in : (r+1)*in+in]
		x2 := x[(r+2)*in : (r+2)*in+in : (r+2)*in+in]
		x3 := x[(r+3)*in : (r+3)*in+in : (r+3)*in+in]
		d0 := dst[r*out : r*out+out]
		d1 := dst[(r+1)*out : (r+1)*out+out]
		d2 := dst[(r+2)*out : (r+2)*out+out]
		d3 := dst[(r+3)*out : (r+3)*out+out]
		for o := 0; o < out; o++ {
			wr := w[o*in : o*in+in : o*in+in]
			b := bias[o]
			s0, s1, s2, s3 := b, b, b, b
			i := 0
			for ; i+4 <= in; i += 4 {
				w0, w1, w2, w3 := wr[i], wr[i+1], wr[i+2], wr[i+3]
				s0 += w0 * x0[i]
				s0 += w1 * x0[i+1]
				s0 += w2 * x0[i+2]
				s0 += w3 * x0[i+3]
				s1 += w0 * x1[i]
				s1 += w1 * x1[i+1]
				s1 += w2 * x1[i+2]
				s1 += w3 * x1[i+3]
				s2 += w0 * x2[i]
				s2 += w1 * x2[i+1]
				s2 += w2 * x2[i+2]
				s2 += w3 * x2[i+3]
				s3 += w0 * x3[i]
				s3 += w1 * x3[i+1]
				s3 += w2 * x3[i+2]
				s3 += w3 * x3[i+3]
			}
			for ; i < in; i++ {
				wi := wr[i]
				s0 += wi * x0[i]
				s1 += wi * x1[i]
				s2 += wi * x2[i]
				s3 += wi * x3[i]
			}
			d0[o], d1[o], d2[o], d3[o] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		xr := x[r*in : r*in+in : r*in+in]
		dr := dst[r*out : r*out+out]
		for o := 0; o < out; o++ {
			wr := w[o*in : o*in+in : o*in+in]
			s := bias[o]
			i := 0
			for ; i+4 <= in; i += 4 {
				s += wr[i] * xr[i]
				s += wr[i+1] * xr[i+1]
				s += wr[i+2] * xr[i+2]
				s += wr[i+3] * xr[i+3]
			}
			for ; i < in; i++ {
				s += wr[i] * xr[i]
			}
			dr[o] = s
		}
	}
}
