package track

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// matrix is a small dense row-major matrix with the textbook
// operations the reference Kalman filter (refKalman) is written in:
// products accumulated from +0 in ascending k, skipping zero left-hand
// entries, and Gauss-Jordan inversion with partial pivoting. The
// matrices are tiny, so clarity is preferred over blocked algorithms.
type matrix struct {
	rows, cols int
	data       []float64
}

// errMatSingular is returned by inverse when the matrix has no inverse.
var errMatSingular = errors.New("mat: matrix is singular")

// newMatrix creates a rows x cols zero matrix.
func newMatrix(rows, cols int) *matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// matFromRows creates a matrix from row slices of equal length.
func matFromRows(rows [][]float64) *matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: matFromRows needs at least one row and column")
	}
	m := newMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("mat: ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// matIdentity returns the n x n identity matrix.
func matIdentity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// matDiag returns a square matrix with the given diagonal entries.
func matDiag(d ...float64) *matrix {
	m := newMatrix(len(d), len(d))
	for i, v := range d {
		m.set(i, i, v)
	}
	return m
}

// matColVec returns a column vector (n x 1) with the given entries.
func matColVec(v ...float64) *matrix {
	m := newMatrix(len(v), 1)
	copy(m.data, v)
	return m
}

func (m *matrix) at(i, j int) float64     { return m.data[i*m.cols+j] }
func (m *matrix) set(i, j int, v float64) { m.data[i*m.cols+j] = v }

func (m *matrix) clone() *matrix {
	c := newMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// mul returns m * o.
func (m *matrix) mul(o *matrix) *matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d * %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := newMatrix(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < o.cols; j++ {
				out.data[i*out.cols+j] += a * o.at(k, j)
			}
		}
	}
	return out
}

// add returns m + o.
func (m *matrix) add(o *matrix) *matrix {
	m.assertSameShape(o, "add")
	out := m.clone()
	for i := range out.data {
		out.data[i] += o.data[i]
	}
	return out
}

// sub returns m - o.
func (m *matrix) sub(o *matrix) *matrix {
	m.assertSameShape(o, "sub")
	out := m.clone()
	for i := range out.data {
		out.data[i] -= o.data[i]
	}
	return out
}

// transpose returns the transpose of m.
func (m *matrix) transpose() *matrix {
	out := newMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.set(j, i, m.at(i, j))
		}
	}
	return out
}

// inverse returns the inverse of a square matrix using Gauss-Jordan
// elimination with partial pivoting. It returns errMatSingular when the
// matrix is not invertible.
func (m *matrix) inverse() (*matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("mat: inverse of non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	a := m.clone()
	inv := matIdentity(n)
	for col := 0; col < n; col++ {
		// Partial pivot: pick the row with the largest magnitude in this
		// column to keep the elimination numerically stable.
		pivot := col
		maxAbs := math.Abs(a.at(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.at(r, col)); v > maxAbs {
				maxAbs, pivot = v, r
			}
		}
		if maxAbs < 1e-300 {
			return nil, errMatSingular
		}
		if pivot != col {
			a.swapRows(col, pivot)
			inv.swapRows(col, pivot)
		}
		p := a.at(col, col)
		for j := 0; j < n; j++ {
			a.set(col, j, a.at(col, j)/p)
			inv.set(col, j, inv.at(col, j)/p)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.at(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.set(r, j, a.at(r, j)-f*a.at(col, j))
				inv.set(r, j, inv.at(r, j)-f*inv.at(col, j))
			}
		}
	}
	return inv, nil
}

func (m *matrix) swapRows(i, j int) {
	for c := 0; c < m.cols; c++ {
		m.data[i*m.cols+c], m.data[j*m.cols+c] = m.data[j*m.cols+c], m.data[i*m.cols+c]
	}
}

func (m *matrix) assertSameShape(o *matrix, op string) {
	if m.rows != o.rows || m.cols != o.cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d vs %dx%d", op, m.rows, m.cols, o.rows, o.cols))
	}
}

func matsAlmostEqual(a, b *matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func TestMatFromRowsAndAccessors(t *testing.T) {
	m := matFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.rows != 3 || m.cols != 2 {
		t.Fatalf("shape = %dx%d", m.rows, m.cols)
	}
	if m.at(2, 1) != 6 {
		t.Errorf("at(2,1) = %v", m.at(2, 1))
	}
	m.set(0, 0, 9)
	if m.at(0, 0) != 9 {
		t.Errorf("set failed")
	}
}

func TestMatMul(t *testing.T) {
	a := matFromRows([][]float64{{1, 2}, {3, 4}})
	b := matFromRows([][]float64{{5, 6}, {7, 8}})
	want := matFromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.mul(b); !matsAlmostEqual(got, want, 1e-12) {
		t.Errorf("mul = %v, want %v", got.data, want.data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	a := matFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := a.mul(matIdentity(3)); !matsAlmostEqual(got, a, 1e-12) {
		t.Errorf("A*I != A")
	}
	if got := matIdentity(2).mul(a); !matsAlmostEqual(got, a, 1e-12) {
		t.Errorf("I*A != A")
	}
}

func TestMatAddSub(t *testing.T) {
	a := matFromRows([][]float64{{1, 2}, {3, 4}})
	b := matFromRows([][]float64{{4, 3}, {2, 1}})
	if got := a.add(b); !matsAlmostEqual(got, matFromRows([][]float64{{5, 5}, {5, 5}}), 1e-12) {
		t.Errorf("add = %v", got.data)
	}
	if got := a.sub(a); !matsAlmostEqual(got, newMatrix(2, 2), 1e-12) {
		t.Errorf("sub = %v", got.data)
	}
	// Operations must not mutate their receiver.
	if a.at(0, 0) != 1 {
		t.Error("receiver mutated")
	}
}

func TestMatTranspose(t *testing.T) {
	a := matFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.transpose()
	if got.rows != 3 || got.cols != 2 || got.at(2, 0) != 3 || got.at(0, 1) != 4 {
		t.Errorf("transpose = %v", got.data)
	}
	if !matsAlmostEqual(got.transpose(), a, 1e-12) {
		t.Error("double transpose should be identity op")
	}
}

func TestMatInverse2x2(t *testing.T) {
	a := matFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := a.inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := matFromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !matsAlmostEqual(inv, want, 1e-9) {
		t.Errorf("inverse = %v, want %v", inv.data, want.data)
	}
}

func TestMatInverseSingular(t *testing.T) {
	a := matFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := a.inverse(); !errors.Is(err, errMatSingular) {
		t.Errorf("err = %v, want errMatSingular", err)
	}
}

func TestMatInverseNonSquare(t *testing.T) {
	if _, err := newMatrix(2, 3).inverse(); err == nil {
		t.Error("expected error for non-square inverse")
	}
}

// Property: for random well-conditioned matrices, A * A^-1 == I.
func TestMatInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		a := newMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the matrix comfortably invertible.
			a.set(i, i, a.at(i, i)+float64(n)+1)
		}
		inv, err := a.inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !matsAlmostEqual(a.mul(inv), matIdentity(n), 1e-8) {
			t.Fatalf("trial %d: A*inv(A) != I", trial)
		}
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMatTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := newMatrix(3, 4), newMatrix(4, 2)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		return matsAlmostEqual(a.mul(b).transpose(), b.transpose().mul(a.transpose()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatDiagColVec(t *testing.T) {
	d := matDiag(1, 2, 3)
	if d.at(1, 1) != 2 || d.at(0, 1) != 0 {
		t.Errorf("matDiag = %v", d.data)
	}
	v := matColVec(1, 2, 3)
	if v.rows != 3 || v.cols != 1 || v.at(2, 0) != 3 {
		t.Errorf("matColVec = %v", v.data)
	}
}
