// Package sensor models the EV's sensors: the front camera (a pinhole
// model rendering actor silhouettes into a grayscale image — the pixel
// surface the trajectory hijacker perturbs) and the LiDAR (a range
// sensor with per-class registration distance, reproducing the paper's
// observation that LiDAR registers vehicles much farther out than
// pedestrians).
package sensor

import (
	"math"

	"github.com/robotack/robotack/internal/geom"
)

// Image is a W x H grayscale image with intensities in [0, 1]. The
// camera renders into it and the detector and the trajectory hijacker
// read and write it. 192x108 pixels stand in for the paper's 1920x1080
// camera.
//
// An image stores no pixels. It holds the intensity of its last Clear,
// the base, and the writes since then, in order: Set, FillRect and
// FillRectAA each append one record of the clipped pixel box they
// cover and their value. A pixel's intensity is the base folded through
// every write whose box holds it (At), so clearing and painting a
// camera frame cost a few records, not a pass over its 20,736 pixels.
// Components labels the grid the writes' edges cut the image into,
// whose cells hold equal pixels. Every pixel outside the writes'
// bounding box holds the base.
//
// The image also memoizes its last labeling (see Components), keyed on
// the threshold: the malware's detector and the ADS's label one
// unwritten frame once between them. Every write method drops the
// memo (a write that clips to nothing changes no pixel and keeps it),
// so a frame the tap perturbs is labeled afresh. Because
// Components writes the memo, an image is not safe for concurrent use,
// not even by readers.
type Image struct {
	W, H int

	base   float64 // every pixel's intensity after the last Clear
	writes []write // the writes since the last Clear, in order
	// bx0..by1 is the half-open bounding box of the writes' boxes,
	// empty when there are none.
	bx0, by0, bx1, by1 int

	// Labeling memo: while memoOK, comps is the labeling at threshold
	// memoTh. grid and runs are the labeler's scratch.
	memoOK bool
	memoTh float64
	grid   cellGrid
	runs   []fgRun
	comps  []Component
}

// write is one Set, FillRect or FillRectAA: the clipped, non-empty,
// half-open pixel box [x0,x1) x [y0,y1) it covers and its value v. A
// plain write stores v in every pixel of the box. An anti-aliased one
// (aa) blends each pixel toward v by its coverage cy*cx, where cx[0],
// cx[1] and cx[2] are the coverage of the box's first, middle and last
// column and cy the same for its rows (see FillRectAA).
type write struct {
	x0, y0, x1, y1 int
	v              float64
	aa             bool
	cx, cy         [3]float64
}

// class returns the coverage index of coordinate i in the box's span
// [lo, hi) on one axis: 0 for the first, 2 for the last and 1 for every
// one in between. A one-pixel span is its own first.
func class(i, lo, hi int) int {
	switch i {
	case lo:
		return 0
	case hi - 1:
		return 2
	}
	return 1
}

// apply writes w onto the pixel at *p, which lies in w's box with row
// and column coverage indices ry and rx.
func (w *write) apply(p *float64, ry, rx int) {
	if !w.aa {
		*p = w.v
		return
	}
	c := w.cy[ry] * w.cx[rx]
	if c <= 0 {
		return
	}
	// Written through the pointer, as a per-pixel raster fill writes
	// it, so the compiler keeps the addition's operand order: on x86 a
	// NaN sum takes the first operand's payload.
	*p = (1-c)*(*p) + c*w.v
}

// NewImage returns a W x H image with every pixel 0.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h}
}

// push appends a write of v over the clipped, non-empty box [x0,x1) x
// [y0,y1), grows the bounding box, drops the labeling memo and returns
// the record.
func (im *Image) push(x0, y0, x1, y1 int, v float64) *write {
	im.memoOK = false
	if len(im.writes) == 0 {
		im.bx0, im.by0, im.bx1, im.by1 = x0, y0, x1, y1
	} else {
		im.bx0, im.by0 = min(im.bx0, x0), min(im.by0, y0)
		im.bx1, im.by1 = max(im.bx1, x1), max(im.by1, y1)
	}
	im.writes = append(im.writes, write{x0: x0, y0: y0, x1: x1, y1: y1, v: v})
	return &im.writes[len(im.writes)-1]
}

// ForegroundWindow returns a half-open window guaranteed to contain
// every pixel with intensity >= th. It is the bounding box of the
// writes since the last Clear when the base is below th, and the whole
// image otherwise.
func (im *Image) ForegroundWindow(th float64) (x0, y0, x1, y1 int) {
	if im.base < th {
		return im.bx0, im.by0, im.bx1, im.by1
	}
	return 0, 0, im.W, im.H
}

// At returns the intensity at (x, y), or 0 outside the image.
// Production reads the image only through Components. Test seam: the
// sensor, detect, core and experiment tests read pixels through it.
func (im *Image) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	p := im.base
	for i := range im.writes {
		w := &im.writes[i]
		if x >= w.x0 && x < w.x1 && y >= w.y0 && y < w.y1 {
			w.apply(&p, class(y, w.y0, w.y1), class(x, w.x0, w.x1))
		}
	}
	return p
}

// Set writes the intensity at (x, y); out-of-bounds writes are ignored.
// Production writes only through FillRectAA. Test seam: the sensor and
// detect tests draw single pixels with it.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.push(x, y, x+1, y+1, v)
}

// Clear resets every pixel to v.
func (im *Image) Clear(v float64) {
	im.memoOK = false
	im.base = v
	im.writes = im.writes[:0]
	im.bx0, im.by0, im.bx1, im.by1 = 0, 0, 0, 0
}

// FillRect paints the axis-aligned pixel rectangle r with intensity v,
// clipped to the image.
func (im *Image) FillRect(r geom.Rect, v float64) {
	x0, y0, x1, y1 := clipRect(r, im.W, im.H)
	if x1 > x0 && y1 > y0 {
		im.push(x0, y0, x1, y1, v)
	}
}

// FillRectAA paints r with intensity v using box-filter anti-aliasing:
// boundary pixels blend toward v in proportion to their coverage. The
// fractional edge intensities let the detector recover object borders
// with sub-pixel precision, standing in for the 10x finer pixel grid of
// the paper's 1920x1080 camera.
//
// A pixel's coverage is cy*cx, its row's overlap with r times its
// column's, and the pixel becomes (1-c)*p + c*v; a pixel with c <= 0
// keeps its value. Every column strictly inside the clipped box has the
// same coverage. For finite edges it is exactly (x+1) - x: floor(xLo)
// <= x0 < x gives xLo < x, and x+1 <= x1-1 <= ceil(xHi)-1 gives
// x+1 < xHi. An edge int cannot hold (NaN, infinite or past ±2^63)
// clips the box to the image border, and every inner column then meets
// that edge alike. Rows behave the same way, so the record keeps three
// coverages per axis: the first, the middle and the last column and
// row.
func (im *Image) FillRectAA(r geom.Rect, v float64) {
	yLo, yHi := r.Min.Y, r.Min.Y+r.H
	xLo, xHi := r.Min.X, r.Min.X+r.W
	y0 := max(int(math.Floor(yLo)), 0)
	y1 := min(int(math.Ceil(yHi)), im.H)
	x0 := max(int(math.Floor(xLo)), 0)
	x1 := min(int(math.Ceil(xHi)), im.W)
	if x1 <= x0 || y1 <= y0 {
		return
	}
	w := im.push(x0, y0, x1, y1, v)
	w.aa = true
	for k, x := range [3]int{x0, x0 + 1, x1 - 1} {
		w.cx[k] = coverage(x, xLo, xHi)
	}
	for k, y := range [3]int{y0, y0 + 1, y1 - 1} {
		w.cy[k] = coverage(y, yLo, yHi)
	}
}

// coverage returns the length of the intersection of pixel span
// [i, i+1] with [lo, hi].
func coverage(i int, lo, hi float64) float64 {
	a := float64(i)
	l, h := geom.Max(a, lo), geom.Min(a+1, hi)
	if h <= l {
		return 0
	}
	return h - l
}

// Clone returns a deep copy of the image, its writes included. The copy
// starts without a labeling memo. Test seam: TestImageClone and the
// detect and experiment tests copy frames with it.
func (im *Image) Clone() *Image {
	c := NewImage(im.W, im.H)
	c.base = im.base
	c.writes = append([]write(nil), im.writes...)
	c.bx0, c.by0, c.bx1, c.by1 = im.bx0, im.by0, im.bx1, im.by1
	return c
}

func clipRect(r geom.Rect, w, h int) (x0, y0, x1, y1 int) {
	x0 = int(r.Min.X)
	y0 = int(r.Min.Y)
	x1 = int(r.Min.X + r.W)
	y1 = int(r.Min.Y + r.H)
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	return x0, y0, x1, y1
}
