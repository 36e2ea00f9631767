// Package geom provides the 2-D geometric primitives shared by the
// simulator, the sensor models and the perception stack: vectors,
// axis-aligned rectangles, and the IoU metric used for detector
// characterization and Hungarian matching.
//
// Conventions: the world frame is metric, x is the EV's longitudinal
// direction of travel and y is lateral (positive to the EV's right).
// Image-space rectangles use pixel units with the origin at the top-left
// corner.
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2-D vector. It is used both for metric world coordinates
// (meters) and for image coordinates (pixels); the containing type
// documents which.
type Vec2 struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Norm() }

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.3f, %.3f)", v.X, v.Y) }

// Rect is an axis-aligned rectangle described by its min corner and its
// extent. Width and height must be non-negative for a valid rectangle;
// an empty Rect has zero area.
type Rect struct {
	Min Vec2    `json:"min"`
	W   float64 `json:"w"`
	H   float64 `json:"h"`
}

// R constructs a Rect from its min corner and extent.
func R(x, y, w, h float64) Rect { return Rect{Min: Vec2{x, y}, W: w, H: h} }

// RectFromCenter constructs a Rect centered at c with extent (w, h).
func RectFromCenter(c Vec2, w, h float64) Rect {
	return Rect{Min: Vec2{c.X - w/2, c.Y - h/2}, W: w, H: h}
}

// Center returns the center point of r.
func (r Rect) Center() Vec2 { return Vec2{r.Min.X + r.W/2, r.Min.Y + r.H/2} }

// Area returns the area of r (zero for degenerate rectangles).
func (r Rect) Area() float64 {
	if r.W <= 0 || r.H <= 0 {
		return 0
	}
	return r.W * r.H
}

// Empty reports whether r has zero area.
func (r Rect) Empty() bool { return r.Area() == 0 }

// Translate returns r shifted by d.
func (r Rect) Translate(d Vec2) Rect {
	return Rect{Min: r.Min.Add(d), W: r.W, H: r.H}
}

// Intersect returns the intersection of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	x1 := Max(r.Min.X, o.Min.X)
	y1 := Max(r.Min.Y, o.Min.Y)
	x2 := Min(r.Min.X+r.W, o.Min.X+o.W)
	y2 := Min(r.Min.Y+r.H, o.Min.Y+o.H)
	if x2 <= x1 || y2 <= y1 {
		return Rect{}
	}
	return Rect{Min: Vec2{x1, y1}, W: x2 - x1, H: y2 - y1}
}

// IoU returns the intersection-over-union of r and o, the bbox accuracy
// metric defined in footnote 3 of the paper. It is 0 for disjoint or
// degenerate boxes and 1 for identical boxes.
func (r Rect) IoU(o Rect) float64 {
	inter := r.Intersect(o).Area()
	if inter == 0 {
		return 0
	}
	union := r.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f %.2fx%.2f]", r.Min.X, r.Min.Y, r.W, r.H)
}

// Max returns math.Max(x, y), bit for bit, but inlines where
// math.Max is a call (into assembly on amd64). Without a NaN argument
// it is the builtin max, which the Go spec makes agree with math.Max
// there, ±0 and ±Inf included. With one it is math.Max itself: the
// builtin would return a NaN taken from its arguments where math.Max
// returns its own, and NaN where math.Max(NaN, +Inf) is +Inf.
func Max(x, y float64) float64 {
	if x == x && y == y {
		return max(x, y)
	}
	return math.Max(x, y)
}

// Min returns math.Min(x, y), bit for bit; see Max.
func Min(x, y float64) float64 {
	if x == x && y == y {
		return min(x, y)
	}
	return math.Min(x, y)
}

// Clamp restricts x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Sign returns -1, 0 or +1 according to the sign of x.
func Sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}
