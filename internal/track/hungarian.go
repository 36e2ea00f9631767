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

// solve runs the Jonker-Volgenant style shortest augmenting path
// formulation of Kuhn-Munkres on cost (rows = workers, cols = jobs)
// and returns assignment[r] = assigned column (or -1). The returned
// slice aliases the scratch and is valid until the next solve call.
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
	if m == 0 {
		s.grow(0, n)
		out := s.out
		for i := range out {
			out[i] = -1
		}
		return out
	}

	// Pad to a square dim x dim matrix with Forbidden costs so every
	// row gets a (possibly dummy) column.
	dim := n
	if m > dim {
		dim = m
	}
	s.grow(dim, n)
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
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
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
