// Package sensor models the EV's sensors: the front camera (a pinhole
// model rendering actor silhouettes into a grayscale raster — the pixel
// surface the trajectory hijacker perturbs) and the LiDAR (a range
// sensor with per-class registration distance, reproducing the paper's
// observation that LiDAR registers vehicles much farther out than
// pedestrians).
package sensor

import (
	"math"

	"github.com/robotack/robotack/internal/geom"
)

// Image is a grayscale raster with intensities in [0, 1]. The camera
// renders into it and the detector and the trajectory hijacker read and
// write it. 192x108 cells stand in for the paper's 1920x1080 camera
// (DESIGN.md §5).
//
// The image tracks the dirty window of writes since the last Clear:
// when the base intensity is known, every pixel outside the window
// still holds it. Silhouettes cover a tiny fraction of the raster, so
// the window lets Clear rewrite only what the previous frame painted
// and lets the connected-component scan skip the empty sky and road —
// the two biggest CPU sinks of the frame loop. Pix may be read freely
// but written only through Set, Clear, FillRect and FillRectAA, which
// maintain the window.
//
// The image also memoizes its last labeling (see Components), keyed on
// the threshold: the malware's detector and the ADS's label one
// unwritten frame once between them. Every write method drops the
// memo, so a frame the tap perturbs is labeled afresh. Because
// Components writes the memo, an image is not safe for concurrent use,
// not even by readers.
//
// Each image also owns a one-row scratch, colCov, that FillRectAA fills
// with the rectangle's per-column coverage; it is allocated together
// with Pix, so it costs no extra allocation, and Clone gives the copy
// its own.
type Image struct {
	W, H int
	Pix  []float64

	// base is the intensity every pixel outside the dirty window holds
	// (valid while baseKnown); dx0..dy1 is the half-open dirty window.
	base               float64
	baseKnown          bool
	dx0, dy0, dx1, dy1 int

	colCov []float64 // FillRectAA per-column coverage scratch, len W

	// Labeling memo: while memoOK, comps is the labeling at threshold
	// memoTh. runs is the labeler's scratch.
	memoOK bool
	memoTh float64
	runs   []fgRun
	comps  []Component
}

// NewImage allocates a zeroed W x H image.
func NewImage(w, h int) *Image {
	n := w * h
	buf := make([]float64, n+w)
	return &Image{W: w, H: h, Pix: buf[:n:n], colCov: buf[n:], baseKnown: true}
}

// markDirty grows the dirty window to include the clipped half-open
// rectangle [x0,x1) x [y0,y1) and drops the labeling memo. Every write
// except Clear goes through it.
func (im *Image) markDirty(x0, y0, x1, y1 int) {
	im.memoOK = false
	if x1 <= x0 || y1 <= y0 {
		return
	}
	if im.dx1 <= im.dx0 || im.dy1 <= im.dy0 { // empty window
		im.dx0, im.dy0, im.dx1, im.dy1 = x0, y0, x1, y1
		return
	}
	if x0 < im.dx0 {
		im.dx0 = x0
	}
	if y0 < im.dy0 {
		im.dy0 = y0
	}
	if x1 > im.dx1 {
		im.dx1 = x1
	}
	if y1 > im.dy1 {
		im.dy1 = y1
	}
}

// ForegroundWindow returns a half-open window guaranteed to contain
// every pixel with intensity >= th. It is the whole raster unless the
// untouched-background intensity is known to be below th, in which
// case it is the dirty window of writes since the last Clear.
func (im *Image) ForegroundWindow(th float64) (x0, y0, x1, y1 int) {
	if im.baseKnown && im.base < th {
		return im.dx0, im.dy0, im.dx1, im.dy1
	}
	return 0, 0, im.W, im.H
}

// At returns the intensity at (x, y), or 0 outside the raster.
func (im *Image) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set writes the intensity at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
	im.markDirty(x, y, x+1, y+1)
}

// Clear resets every pixel to v. When v is the base the raster was
// last cleared to, only the dirty window is rewritten.
func (im *Image) Clear(v float64) {
	im.memoOK = false
	if im.baseKnown && v == im.base {
		for y := im.dy0; y < im.dy1; y++ {
			row := im.Pix[y*im.W+im.dx0 : y*im.W+im.dx1]
			for x := range row {
				row[x] = v
			}
		}
	} else {
		pix := im.Pix
		for i := range pix {
			pix[i] = v
		}
		im.base = v
		im.baseKnown = true
	}
	im.dx0, im.dy0, im.dx1, im.dy1 = 0, 0, 0, 0
}

// FillRect paints the axis-aligned pixel rectangle r with intensity v,
// clipped to the raster.
func (im *Image) FillRect(r geom.Rect, v float64) {
	x0, y0, x1, y1 := clipRect(r, im.W, im.H)
	for y := y0; y < y1; y++ {
		row := y * im.W
		for x := x0; x < x1; x++ {
			im.Pix[row+x] = v
		}
	}
	im.markDirty(x0, y0, x1, y1)
}

// FillRectAA paints r with intensity v using box-filter anti-aliasing:
// boundary pixels blend toward v in proportion to their coverage. The
// fractional edge intensities let the detector recover object borders
// with sub-pixel precision, standing in for the 10x finer pixel grid of
// the paper's 1920x1080 camera.
func (im *Image) FillRectAA(r geom.Rect, v float64) {
	yLo, yHi := r.Min.Y, r.Min.Y+r.H
	xLo, xHi := r.Min.X, r.Min.X+r.W
	y0 := int(math.Floor(yLo))
	y1 := int(math.Ceil(yHi))
	x0 := int(math.Floor(xLo))
	x1 := int(math.Ceil(xHi))
	if y0 < 0 {
		y0 = 0
	}
	if x0 < 0 {
		x0 = 0
	}
	if y1 > im.H {
		y1 = im.H
	}
	if x1 > im.W {
		x1 = im.W
	}
	if x1 <= x0 || y1 <= y0 {
		return
	}
	// Column coverage depends only on x, so it is computed once per
	// call; each pixel then costs one multiply and the blend. The
	// per-pixel expressions are the plain per-pixel formula's, so the
	// raster comes out bit-identical — blending interior pixels (c == 1)
	// too, rather than storing v, keeps that true for any pixel value.
	if len(im.colCov) < im.W {
		im.colCov = make([]float64, im.W)
	}
	cov := im.colCov[:x1-x0]
	for i := range cov {
		x := float64(x0 + i)
		cov[i] = overlap(x, x+1, xLo, xHi)
	}
	for y := y0; y < y1; y++ {
		cy := overlap(float64(y), float64(y)+1, yLo, yHi)
		row := im.Pix[y*im.W+x0 : y*im.W+x1]
		row = row[:len(cov)] // proves row[i] in bounds: no per-pixel check
		for i, cx := range cov {
			c := cy * cx
			if c <= 0 {
				continue
			}
			row[i] = (1-c)*row[i] + c*v
		}
	}
	im.markDirty(x0, y0, x1, y1)
}

// overlap returns the length of the intersection of [a0,a1] and [b0,b1].
func overlap(a0, a1, b0, b1 float64) float64 {
	lo, hi := geom.Max(a0, b0), geom.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Clone returns a deep copy of the image, dirty window included. The
// copy starts without a labeling memo.
func (im *Image) Clone() *Image {
	c := NewImage(im.W, im.H)
	copy(c.Pix, im.Pix)
	c.base, c.baseKnown = im.base, im.baseKnown
	c.dx0, c.dy0, c.dx1, c.dy1 = im.dx0, im.dy0, im.dx1, im.dy1
	return c
}

// Bounds returns the raster rectangle in pixel coordinates.
func (im *Image) Bounds() geom.Rect {
	return geom.R(0, 0, float64(im.W), float64(im.H))
}

// MassAbove returns the number of pixels in r with intensity >= thresh.
func (im *Image) MassAbove(r geom.Rect, thresh float64) int {
	x0, y0, x1, y1 := clipRect(r, im.W, im.H)
	n := 0
	for y := y0; y < y1; y++ {
		row := y * im.W
		for x := x0; x < x1; x++ {
			if im.Pix[row+x] >= thresh {
				n++
			}
		}
	}
	return n
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
