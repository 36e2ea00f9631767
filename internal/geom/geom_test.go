package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecOps(t *testing.T) {
	tests := []struct {
		name string
		got  Vec2
		want Vec2
	}{
		{"add", V(1, 2).Add(V(3, -1)), V(4, 1)},
		{"sub", V(1, 2).Sub(V(3, -1)), V(-2, 3)},
		{"scale", V(1, 2).Scale(2.5), V(2.5, 5)},
		{"unit-zero", V(0, 0).Unit(), V(0, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !almostEqual(tt.got.X, tt.want.X) || !almostEqual(tt.got.Y, tt.want.Y) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVecNormDot(t *testing.T) {
	if got := V(3, 4).Norm(); !almostEqual(got, 5) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := V(3, 4).Dist(V(0, 0)); !almostEqual(got, 5) {
		t.Errorf("Dist = %v, want 5", got)
	}
	u := V(3, 4).Unit()
	if !almostEqual(u.Norm(), 1) {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
}

func TestRectBasics(t *testing.T) {
	r := R(1, 2, 3, 4)
	if got := r.Area(); !almostEqual(got, 12) {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Center(); !almostEqual(got.X, 2.5) || !almostEqual(got.Y, 4) {
		t.Errorf("Center = %v", got)
	}
	c := RectFromCenter(V(0, 0), 2, 4)
	if !almostEqual(c.Min.X, -1) || !almostEqual(c.Min.Y, -2) {
		t.Errorf("RectFromCenter min = %v", c.Min)
	}
	tr := r.Translate(V(1, -1))
	if !almostEqual(tr.Min.X, 2) || !almostEqual(tr.Min.Y, 1) {
		t.Errorf("Translate = %v", tr)
	}
}

func TestRectDegenerate(t *testing.T) {
	if !R(0, 0, 0, 5).Empty() {
		t.Error("zero-width rect should be empty")
	}
	if !R(0, 0, 5, -1).Empty() {
		t.Error("negative-height rect should be empty")
	}
	if got := R(0, 0, 0, 5).IoU(R(0, 0, 1, 1)); got != 0 {
		t.Errorf("IoU with empty rect = %v, want 0", got)
	}
}

func TestIntersectUnion(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(2, 2, 4, 4)
	inter := a.Intersect(b)
	if !almostEqual(inter.Area(), 4) {
		t.Errorf("Intersect area = %v, want 4", inter.Area())
	}
	if got := a.Intersect(R(10, 10, 1, 1)); !got.Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", got)
	}

	// Edges at -0, +0, NaN and ±Inf, in both argument orders: Intersect
	// must give the bits that math.Max and math.Min give, NaN results and
	// math.Max(NaN, +Inf) = +Inf included. x86's default NaN (sign set)
	// is one math.Max and math.Min never return.
	nz, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
	xnan := math.Float64frombits(0xfff8000000000000)
	edges := []struct {
		name string
		a, b Rect
	}{
		{"-0 and +0 corners", R(nz, 0, 2, 2), R(0, nz, 2, 2)},
		{"-0 corners", R(nz, nz, 2, 2), R(nz, nz, 3, 3)},
		{"-0 far edges", R(-2, -2, 2, 2), R(-3, -3, 3, 3)},
		{"NaN corner", R(nan, 0, 2, 2), R(0, 0, 2, 2)},
		{"x86 NaN corner", R(xnan, xnan, 2, 2), R(1, 1, 2, 2)},
		{"NaN extent", R(0, 0, nan, 2), R(1, 1, 2, 2)},
		{"NaN and +Inf", R(nan, nan, 2, 2), R(inf, inf, 2, 2)},
		{"NaN and -Inf", R(-inf, -inf, 2, 2), R(xnan, nan, 2, 2)},
		{"NaN and infinite extent", R(0, 0, nan, nan), R(0, 0, inf, inf)},
		{"unbounded", R(-inf, -inf, inf, inf), R(0, 0, 1, 1)},
		{"infinite corners", R(inf, -inf, 1, 1), R(-inf, inf, 1, 1)},
		{"infinite extents", R(0, 0, inf, inf), R(1, -inf, 2, inf)},
	}
	bits := func(r Rect) [4]uint64 {
		return [4]uint64{math.Float64bits(r.Min.X), math.Float64bits(r.Min.Y),
			math.Float64bits(r.W), math.Float64bits(r.H)}
	}
	for _, e := range edges {
		for _, p := range [2][2]Rect{{e.a, e.b}, {e.b, e.a}} {
			r, o := p[0], p[1]
			if got, want := r.Intersect(o), refIntersect(r, o); bits(got) != bits(want) {
				t.Errorf("%s: %v.Intersect(%v) = %x, want %x", e.name, r, o, bits(got), bits(want))
			}
		}
	}
}

// refIntersect is Intersect written with math.Max and math.Min.
func refIntersect(r, o Rect) Rect {
	x1 := math.Max(r.Min.X, o.Min.X)
	y1 := math.Max(r.Min.Y, o.Min.Y)
	x2 := math.Min(r.Min.X+r.W, o.Min.X+o.W)
	y2 := math.Min(r.Min.Y+r.H, o.Min.Y+o.H)
	if x2 <= x1 || y2 <= y1 {
		return Rect{}
	}
	return Rect{Min: Vec2{x1, y1}, W: x2 - x1, H: y2 - y1}
}

func TestIoU(t *testing.T) {
	tests := []struct {
		name string
		a, b Rect
		want float64
	}{
		{"identical", R(0, 0, 2, 2), R(0, 0, 2, 2), 1},
		{"disjoint", R(0, 0, 1, 1), R(5, 5, 1, 1), 0},
		{"half-overlap", R(0, 0, 2, 2), R(1, 0, 2, 2), 2.0 / 6.0},
		{"contained", R(0, 0, 4, 4), R(1, 1, 2, 2), 4.0 / 16.0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.IoU(tt.b); !almostEqual(got, tt.want) {
				t.Errorf("IoU = %v, want %v", got, tt.want)
			}
		})
	}
}

// Property: IoU is symmetric, bounded in [0,1], and exactly 1 only for
// rectangles that coincide.
func TestIoUProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a := R(float64(ax), float64(ay), float64(aw%32)+1, float64(ah%32)+1)
		b := R(float64(bx), float64(by), float64(bw%32)+1, float64(bh%32)+1)
		ab, ba := a.IoU(b), b.IoU(a)
		if !almostEqual(ab, ba) {
			return false
		}
		return ab >= 0 && ab <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: translating both rectangles by the same vector preserves IoU.
func TestIoUTranslationInvariant(t *testing.T) {
	f := func(ax, ay, bx, by, dx, dy int8) bool {
		a := R(float64(ax), float64(ay), 10, 6)
		b := R(float64(bx), float64(by), 8, 8)
		d := V(float64(dx), float64(dy))
		return almostEqual(a.IoU(b), a.Translate(d).IoU(b.Translate(d)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClampSign(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp high = %v", got)
	}
	if got := Clamp(-5, 0, 3); got != 0 {
		t.Errorf("Clamp low = %v", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp in-range = %v", got)
	}
	if Sign(3) != 1 || Sign(-2) != -1 || Sign(0) != 0 {
		t.Error("Sign wrong")
	}
}
