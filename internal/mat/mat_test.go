package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func matsAlmostEqual(a, b *Matrix, tol float64) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Abs(a.At(i, j)-b.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed")
	}
	col := m.Col(1)
	if col[0] != 2 || col[1] != 4 || col[2] != 6 {
		t.Errorf("Col = %v", col)
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !matsAlmostEqual(got, want, 1e-12) {
		t.Errorf("Mul =\n%v want\n%v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := a.Mul(Identity(3)); !matsAlmostEqual(got, a, 1e-12) {
		t.Errorf("A*I != A")
	}
	if got := Identity(2).Mul(a); !matsAlmostEqual(got, a, 1e-12) {
		t.Errorf("I*A != A")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if got := a.Add(b); !matsAlmostEqual(got, FromRows([][]float64{{5, 5}, {5, 5}}), 1e-12) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(a); !matsAlmostEqual(got, New(2, 2), 1e-12) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got.At(1, 1) != 8 {
		t.Errorf("Scale = %v", got)
	}
	// Operations must not mutate their receiver.
	if a.At(0, 0) != 1 {
		t.Error("receiver mutated")
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.T()
	if got.Rows() != 3 || got.Cols() != 2 || got.At(2, 0) != 3 || got.At(0, 1) != 4 {
		t.Errorf("T = %v", got)
	}
	if !matsAlmostEqual(got.T(), a, 1e-12) {
		t.Error("double transpose should be identity op")
	}
}

func TestInverse2x2(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !matsAlmostEqual(inv, want, 1e-9) {
		t.Errorf("Inverse =\n%v want\n%v", inv, want)
	}
}

func TestInverseSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Error("expected error for non-square inverse")
	}
}

// Property: for random well-conditioned matrices, A * A^-1 == I.
func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			// Diagonal dominance keeps the matrix comfortably invertible.
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !matsAlmostEqual(a.Mul(inv), Identity(n), 1e-8) {
			t.Fatalf("trial %d: A*inv(A) != I", trial)
		}
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(3, 4), New(4, 2)
		for i := range a.data {
			a.data[i] = rng.NormFloat64()
		}
		for i := range b.data {
			b.data[i] = rng.NormFloat64()
		}
		return matsAlmostEqual(a.Mul(b).T(), b.T().Mul(a.T()), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDiagColVec(t *testing.T) {
	d := Diag(1, 2, 3)
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Errorf("Diag = %v", d)
	}
	v := ColVec(1, 2, 3)
	if v.Rows() != 3 || v.Cols() != 1 || v.At(2, 0) != 3 {
		t.Errorf("ColVec = %v", v)
	}
}
