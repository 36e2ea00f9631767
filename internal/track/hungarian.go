package track

import "math"

// Forbidden is the cost assigned to disallowed assignments. Hungarian
// treats it as any other (large) cost; callers must filter assignments
// whose cost is >= Forbidden afterwards.
const Forbidden = 1e6

// hungarianScratch holds the working arrays of the assignment solver
// so a long-lived caller (the Tracker, once per frame) can run it with
// zero heap allocations once the buffers are warm. The algorithm and
// its arithmetic are identical to the historical allocating version —
// only the storage is reused.
type hungarianScratch struct {
	a          []float64 // (dim+1) x (dim+1) padded cost, flat row-major
	u, v, minv []float64
	p, way     []int
	used       []bool
	out        []int
}

// grow ensures every buffer covers a (dim+1)-sized problem.
func (s *hungarianScratch) grow(dim, n int) {
	if cap(s.a) < (dim+1)*(dim+1) {
		s.a = make([]float64, (dim+1)*(dim+1))
	}
	s.a = s.a[:(dim+1)*(dim+1)]
	if cap(s.u) < dim+1 {
		s.u = make([]float64, dim+1)
		s.v = make([]float64, dim+1)
		s.minv = make([]float64, dim+1)
		s.p = make([]int, dim+1)
		s.way = make([]int, dim+1)
		s.used = make([]bool, dim+1)
	}
	s.u = s.u[:dim+1]
	s.v = s.v[:dim+1]
	s.minv = s.minv[:dim+1]
	s.p = s.p[:dim+1]
	s.way = s.way[:dim+1]
	s.used = s.used[:dim+1]
	if cap(s.out) < n {
		s.out = make([]int, n)
	}
	s.out = s.out[:n]
}

// solve returns an optimal assignment for cost (rows = workers, cols =
// jobs): assignment[r] = assigned column (or -1). The returned slice
// aliases the scratch and is valid until the next solve call.
//
// When the feasible entries, those in [0, Forbidden), already form a
// matching (at most one per row and per column) and every other entry
// is Forbidden, solve returns exactly those pairs and leaves the rest
// of the rows at -1. Otherwise, a NaN, a negative entry or one above
// Forbidden included, it runs the full solver, jv. The shortcut is
// exact for a caller that drops pairs costing Forbidden or more, as
// the Tracker does: a padded assignment that leaves out a feasible
// pair of cost c pays Forbidden in its place, and Forbidden - c > 0,
// so every optimal assignment takes all the feasible pairs, and those
// pairs are the only ones that survive the filter. Forbidden is 1e6
// and a gated tracker cost at most 2, so the margin is six orders of
// magnitude. Most frames, with one detection per track, take this
// path.
func (s *hungarianScratch) solve(cost [][]float64) []int {
	n := len(cost)
	if n == 0 {
		return nil
	}
	m := 0
	for _, row := range cost {
		if len(row) > m {
			m = len(row)
		}
	}
	// Pad to a square dim x dim matrix with Forbidden costs so every
	// row gets a (possibly dummy) column.
	dim := max(n, m)
	s.grow(dim, n)
	out, taken := s.out, s.used[:m]
	for i := range out {
		out[i] = -1
	}
	for j := range taken {
		taken[j] = false
	}
	for i, row := range cost {
		for j, c := range row {
			if c == Forbidden {
				continue
			}
			if !(c >= 0 && c < Forbidden) || out[i] >= 0 || taken[j] {
				return s.jv(cost, n, m, dim)
			}
			out[i], taken[j] = j, true
		}
	}
	return out
}

// jv runs the Jonker-Volgenant style shortest augmenting path
// formulation of Kuhn-Munkres on cost, an n x m matrix padded to dim x
// dim, with the scratch grown for dim.
//
// A row whose search finds every column outside its tree at a reduced
// cost of NaN or +Inf (a row of NaN costs, say, which a track with a
// NaN state produces) cannot be matched, and jv leaves it unassigned.
// Taking the search's step of +Inf there would make every such cost
// NaN and repeat the same step for ever, so this only changes what
// happens to inputs that never returned.
func (s *hungarianScratch) jv(cost [][]float64, n, m, dim int) []int {
	w := dim + 1
	for i := 1; i <= dim; i++ {
		for j := 1; j <= dim; j++ {
			c := Forbidden
			if i-1 < n && j-1 < len(cost[i-1]) {
				c = cost[i-1][j-1]
			}
			s.a[i*w+j] = c
		}
	}

	u, v, p, way := s.u, s.v, s.p, s.way
	for i := range u {
		u[i], v[i] = 0, 0
		p[i], way[i] = 0, 0
	}

	for i := 1; i <= dim; i++ {
		p[0] = i
		j0 := 0
		minv, used := s.minv, s.used
		for j := range minv {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0, j1 := p[j0], 0
			delta := math.Inf(1)
			for j := 1; j <= dim; j++ {
				if used[j] {
					continue
				}
				cur := s.a[i0*w+j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 == 0 {
				j0 = 0 // row i stays unmatched
				break
			}
			for j := 0; j <= dim; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	out := s.out
	for i := range out {
		out[i] = -1
	}
	for j := 1; j <= dim; j++ {
		if r := p[j]; r >= 1 && r <= n && j-1 < m {
			out[r-1] = j - 1
		}
	}
	return out
}
