package sensor

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

func TestImageSetAt(t *testing.T) {
	im := NewImage(8, 4)
	im.Set(3, 2, 0.7)
	if got := im.At(3, 2); got != 0.7 {
		t.Errorf("At = %v", got)
	}
	// Out-of-bounds access must be safe.
	im.Set(-1, 0, 1)
	im.Set(8, 0, 1)
	im.Set(0, 4, 1)
	if im.At(-1, 0) != 0 || im.At(8, 0) != 0 || im.At(0, 4) != 0 {
		t.Error("out-of-bounds At should be 0")
	}
}

func TestImageFillRectClipped(t *testing.T) {
	im := NewImage(10, 10)
	im.FillRect(geom.R(-5, -5, 8, 8), 1)
	if got := countAbove(im, geom.R(0, 0, 10, 10), 0.5); got != 9 {
		t.Errorf("mass = %d, want 9 (3x3 clipped region)", got)
	}
	if im.At(2, 2) != 1 || im.At(3, 3) != 0 {
		t.Error("fill boundary wrong")
	}
}

// countAbove returns the number of pixels of im with intensity >= th in
// r, whose corners are truncated to pixels and clipped to the image.
func countAbove(im *Image, r geom.Rect, th float64) int {
	n := 0
	for y := max(int(r.Min.Y), 0); y < min(int(r.Min.Y+r.H), im.H); y++ {
		for x := max(int(r.Min.X), 0); x < min(int(r.Min.X+r.W), im.W); x++ {
			if im.At(x, y) >= th {
				n++
			}
		}
	}
	return n
}

func TestImageClone(t *testing.T) {
	im := NewImage(4, 4)
	im.Set(1, 1, 0.5)
	c := im.Clone()
	c.Set(1, 1, 0.9)
	if im.At(1, 1) != 0.5 {
		t.Error("clone aliases parent")
	}
}

// TestClearResetsEveryPixel clears an image whose base is +0 to -0
// after one write: every pixel must then hold -0's bits, not only the
// written one.
func TestClearResetsEveryPixel(t *testing.T) {
	negZero := math.Copysign(0, -1)
	im := NewImage(4, 3)
	im.Set(1, 1, 0.5)
	im.Clear(negZero)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			if got := im.At(x, y); math.Float64bits(got) != math.Float64bits(negZero) {
				t.Errorf("pixel (%d, %d) = %#x after Clear(-0), want %#x",
					x, y, math.Float64bits(got), math.Float64bits(negZero))
			}
		}
	}
}

// raster is the sensor tests' model of an Image, independent of its
// write list: a plain pixel array that every write paints, with the
// dirty window of writes since the last clear. Clear rewrites every
// pixel.
type raster struct {
	w, h               int
	pix                []float64
	base               float64
	dx0, dy0, dx1, dy1 int // half-open dirty window, empty after clear
}

func newRaster(w, h int) *raster { return &raster{w: w, h: h, pix: make([]float64, w*h)} }

// markDirty grows the dirty window to include [x0,x1) x [y0,y1).
func (r *raster) markDirty(x0, y0, x1, y1 int) {
	if x1 <= x0 || y1 <= y0 {
		return
	}
	if r.dx1 <= r.dx0 || r.dy1 <= r.dy0 {
		r.dx0, r.dy0, r.dx1, r.dy1 = x0, y0, x1, y1
		return
	}
	r.dx0, r.dy0 = min(r.dx0, x0), min(r.dy0, y0)
	r.dx1, r.dy1 = max(r.dx1, x1), max(r.dy1, y1)
}

// window is ForegroundWindow's contract: the dirty window when the
// base is below th, else the whole raster.
func (r *raster) window(th float64) (x0, y0, x1, y1 int) {
	if r.base < th {
		return r.dx0, r.dy0, r.dx1, r.dy1
	}
	return 0, 0, r.w, r.h
}

func (r *raster) at(x, y int) float64 { return r.pix[y*r.w+x] }

func (r *raster) set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= r.w || y >= r.h {
		return
	}
	r.pix[y*r.w+x] = v
	r.markDirty(x, y, x+1, y+1)
}

func (r *raster) clear(v float64) {
	for i := range r.pix {
		r.pix[i] = v
	}
	r.base = v
	r.dx0, r.dy0, r.dx1, r.dy1 = 0, 0, 0, 0
}

// fillRect paints rect, its corners truncated to pixels and clipped.
func (r *raster) fillRect(rect geom.Rect, v float64) {
	x0, y0 := max(int(rect.Min.X), 0), max(int(rect.Min.Y), 0)
	x1, y1 := min(int(rect.Min.X+rect.W), r.w), min(int(rect.Min.Y+rect.H), r.h)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			r.pix[y*r.w+x] = v
		}
	}
	r.markDirty(x0, y0, x1, y1)
}

// fillRectAA is the per-pixel anti-aliased fill: both coverages and the
// blend are evaluated pixel by pixel, with coverage from refOverlap.
func (r *raster) fillRectAA(rect geom.Rect, v float64) {
	yLo, yHi := rect.Min.Y, rect.Min.Y+rect.H
	xLo, xHi := rect.Min.X, rect.Min.X+rect.W
	y0 := max(int(math.Floor(yLo)), 0)
	y1 := min(int(math.Ceil(yHi)), r.h)
	x0 := max(int(math.Floor(xLo)), 0)
	x1 := min(int(math.Ceil(xHi)), r.w)
	for y := y0; y < y1; y++ {
		cy := refOverlap(float64(y), float64(y)+1, yLo, yHi)
		for x := x0; x < x1; x++ {
			c := cy * refOverlap(float64(x), float64(x)+1, xLo, xHi)
			if c <= 0 {
				continue
			}
			p := &r.pix[y*r.w+x]
			*p = (1-c)*(*p) + c*v
		}
	}
	r.markDirty(x0, y0, x1, y1)
}

func (r *raster) clone() *raster {
	c := *r
	c.pix = slices.Clone(r.pix)
	return &c
}

// refOverlap is the reference's interval overlap. It uses math.Max and
// math.Min rather than the kernel's own coverage, so the reference does
// not check the kernel's min and max against themselves.
func refOverlap(a0, a1, b0, b1 float64) float64 {
	lo, hi := math.Max(a0, b0), math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// mirror is an Image under test and its raster model: every write goes
// to both.
type mirror struct {
	im  *Image
	ref *raster
}

func newMirror(w, h int) mirror { return mirror{NewImage(w, h), newRaster(w, h)} }

func (m mirror) Set(x, y int, v float64)           { m.im.Set(x, y, v); m.ref.set(x, y, v) }
func (m mirror) Clear(v float64)                   { m.im.Clear(v); m.ref.clear(v) }
func (m mirror) FillRect(r geom.Rect, v float64)   { m.im.FillRect(r, v); m.ref.fillRect(r, v) }
func (m mirror) FillRectAA(r geom.Rect, v float64) { m.im.FillRectAA(r, v); m.ref.fillRectAA(r, v) }
func (m mirror) Clone() mirror                     { return mirror{m.im.Clone(), m.ref.clone()} }

// sameRaster fails t unless every pixel of got has the bits of want's
// and got's ForegroundWindow is want's window, at 0.5 and at +Inf (the
// dirty window even over a foreground base).
func sameRaster(t *testing.T, name string, got *Image, want *raster) {
	t.Helper()
	for y := 0; y < want.h; y++ {
		for x := 0; x < want.w; x++ {
			if g, w := got.At(x, y), want.at(x, y); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: pixel (%d, %d) = %v (%#x), want %v (%#x)", name, x, y, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	for _, th := range [2]float64{0.5, math.Inf(1)} {
		gx0, gy0, gx1, gy1 := got.ForegroundWindow(th)
		wx0, wy0, wx1, wy1 := want.window(th)
		if [4]int{gx0, gy0, gx1, gy1} != [4]int{wx0, wy0, wx1, wy1} {
			t.Fatalf("%s: window at %v %v, want %v", name, th, [4]int{gx0, gy0, gx1, gy1}, [4]int{wx0, wy0, wx1, wy1})
		}
	}
}

// The fill tests' raster size, and the fixed rectangles they mix into
// random fills (and seed FuzzFillRectAA with).
const fillW, fillH = 40, 24

var fillRectAAFixed = []geom.Rect{
	geom.R(3.25, 4.5, 10.75, 6.125),      // sub-pixel on every edge
	geom.R(5, 6, 7, 3),                   // pixel-aligned
	geom.R(-6.5, -3.25, 10, 8),           // partly off the top-left
	geom.R(fillW-4.5, fillH-2.75, 12, 9), // partly off the bottom-right
	geom.R(-20, 5, 8, 4),                 // fully off-raster left
	geom.R(fillW+3, fillH+1, 5, 5),       // fully off-raster right and below
	geom.R(8, 8, 0, 5),                   // zero width
	geom.R(8, 8, 5, 0),                   // zero height
	geom.R(12.5, 10.5, -4, 3),            // negative width
	geom.R(12.5, 10.5, 3, -4),            // negative height
	geom.R(-10, -10, fillW+20, fillH+20), // covers the whole raster
	geom.R(17.9, 3.1, 0.15, 0.3),         // inside one pixel
	geom.R(math.NaN(), 2, 4, 4),          // non-finite edge
	geom.R(2, 2, math.Inf(1), 4),         // unbounded width
}

func TestFillRectAAMatchesReference(t *testing.T) {
	const w, h = fillW, fillH
	rng := stats.NewRNG(13)
	for round := 0; round < 500; round++ {
		m := newMirror(w, h)
		if round%3 == 0 { // foreground base: the window is the whole raster
			m.Clear(0.6)
		}
		if round%7 == 0 { // a non-finite pixel under the fills
			m.Set(10, 9, math.Inf(1))
		}
		// Overlapping repeated fills, fixed edge cases mixed in.
		for n := 0; n < 1+rng.IntN(8); n++ {
			r := geom.R(rng.Uniform(-8, w+4), rng.Uniform(-8, h+4), rng.Uniform(-2, w/2), rng.Uniform(-2, h/2))
			if rng.IntN(3) == 0 {
				r = fillRectAAFixed[rng.IntN(len(fillRectAAFixed))]
			}
			v := []float64{0.9, 0.05, rng.Uniform(0, 1)}[rng.IntN(3)]
			m.FillRectAA(r, v)
			sameRaster(t, "fill", m.im, m.ref)
		}
		// A fill onto a clone matches the reference applied to a clone
		// and leaves the original untouched.
		c := m.Clone()
		c.FillRectAA(geom.R(rng.Uniform(-4, w), rng.Uniform(-4, h), rng.Uniform(0, w), rng.Uniform(0, h)), 0.9)
		sameRaster(t, "clone", c.im, c.ref)
		sameRaster(t, "original after clone fill", m.im, m.ref)
	}
}

// FuzzFillRectAA holds the fill to the per-pixel reference, window
// included, for one fill of an arbitrary rectangle (sub-pixel,
// negative, NaN or infinite edges and sizes) with an arbitrary value,
// over a background or a foreground base. bad%4 optionally puts +Inf,
// -Inf or NaN at pixel index at, before the fill.
func FuzzFillRectAA(f *testing.F) {
	for i, r := range fillRectAAFixed {
		f.Add(r.Min.X, r.Min.Y, r.W, r.H, 0.9, i%3 == 0, uint8(i%4), uint16(9*fillW+10))
	}
	f.Add(3.25, 4.5, 10.75, 6.125, math.NaN(), false, uint8(0), uint16(0))
	f.Add(math.Inf(-1), 2.0, math.Inf(1), 4.0, 0.05, true, uint8(3), uint16(100))
	// A NaN fill over a -Inf pixel at (34, 1), where the blend adds two
	// NaNs: x86 keeps the first operand's payload, so the sum's operand
	// order shows in the pixel's bits (0xfff8000000000000).
	f.Add(3.25, 0.6428571428571429, 43.0, 6.125, math.NaN(), false, uint8(2), uint16(74))
	f.Fuzz(func(t *testing.T, x, y, w, h, v float64, fg bool, bad uint8, at uint16) {
		m := newMirror(fillW, fillH)
		if fg {
			m.Clear(0.6)
		}
		if k := bad % 4; k != 0 {
			nf := [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[k-1]
			i := int(at) % (fillW * fillH)
			m.Set(i%fillW, i/fillW, nf)
		}
		m.FillRectAA(geom.R(x, y, w, h), v)
		sameRaster(t, "fill", m.im, m.ref)
	})
}

func TestProjectBackProjectRoundTrip(t *testing.T) {
	c := DefaultCamera()
	f := func(depthRaw, latRaw uint8) bool {
		depth := 5 + float64(depthRaw%80) // 5..85 m
		lat := float64(latRaw)/255*8 - 4  // -4..4 m
		box, ok := c.Project(geom.V(depth, lat), sim.SizeCar)
		if !ok {
			return true // off-frame is acceptable
		}
		rel, ok := c.BackProject(box)
		if !ok {
			return false
		}
		return math.Abs(rel.X-depth) < 0.25 && math.Abs(rel.Y-lat) < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProjectFartherIsSmaller(t *testing.T) {
	c := DefaultCamera()
	near, ok1 := c.Project(geom.V(20, 0), sim.SizeCar)
	far, ok2 := c.Project(geom.V(60, 0), sim.SizeCar)
	if !ok1 || !ok2 {
		t.Fatal("both projections should succeed")
	}
	if near.W <= far.W || near.H <= far.H {
		t.Errorf("near %v should be larger than far %v", near, far)
	}
}

func TestProjectDepthBounds(t *testing.T) {
	c := DefaultCamera()
	if _, ok := c.Project(geom.V(1, 0), sim.SizeCar); ok {
		t.Error("too-close object should not project")
	}
	if _, ok := c.Project(geom.V(500, 0), sim.SizeCar); ok {
		t.Error("too-far object should not project")
	}
	if _, ok := c.Project(geom.V(20, 100), sim.SizeCar); ok {
		t.Error("far-off-axis object should not project")
	}
}

func TestBackProjectAboveHorizon(t *testing.T) {
	c := DefaultCamera()
	if _, ok := c.BackProject(geom.R(90, 10, 10, 10)); ok {
		t.Error("box above horizon must not back-project")
	}
}

func TestWidthFromBox(t *testing.T) {
	c := DefaultCamera()
	box, ok := c.Project(geom.V(25, 0), sim.SizeCar)
	if !ok {
		t.Fatal("projection failed")
	}
	if got := c.WidthFromBox(box, 25); math.Abs(got-sim.SizeCar.Width) > 1e-9 {
		t.Errorf("width = %v, want %v", got, sim.SizeCar.Width)
	}
}

func newSensorWorld() *sim.World {
	ev := sim.DefaultEV()
	ev.Speed = 10
	return sim.NewWorld(sim.DefaultRoad(), ev)
}

func TestCaptureRendersSilhouette(t *testing.T) {
	w := newSensorWorld()
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(30, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	c := DefaultCamera()
	frame := c.CaptureInto(&CaptureBuffer{}, w, 0)
	if len(frame.Truth) != 1 {
		t.Fatalf("truth count = %d", len(frame.Truth))
	}
	box := frame.Truth[0].Box
	inside := countAbove(frame.Image, box, 0.5)
	if inside == 0 {
		t.Fatal("silhouette not rendered")
	}
	// Anti-aliased boundary pixels may extend up to one pixel past the
	// exact projection.
	grown := geom.R(box.Min.X-1, box.Min.Y-1, box.W+2, box.H+2)
	all := geom.R(0, 0, float64(c.W), float64(c.H))
	outside := countAbove(frame.Image, all, 0.5) - countAbove(frame.Image, grown, 0.5)
	if outside != 0 {
		t.Errorf("%d foreground pixels far outside truth box", outside)
	}
}

func TestCaptureOcclusionOrder(t *testing.T) {
	w := newSensorWorld()
	// Two vehicles dead ahead; the near one fully occludes the far one.
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(60, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(20, 0), Size: sim.SizeBus, Behavior: sim.Parked{}})
	c := DefaultCamera()
	frame := c.CaptureInto(&CaptureBuffer{}, w, 0)
	if len(frame.Truth) != 2 {
		t.Fatalf("truth count = %d", len(frame.Truth))
	}
	// Truth is ordered far to near.
	if frame.Truth[0].Depth < frame.Truth[1].Depth {
		t.Error("truth should be ordered far to near")
	}
}

// TestDefaultFocalMatchesFormula holds the focal-length literal to the
// formula it stands for, on amd64, whose bits it holds.
func TestDefaultFocalMatchesFormula(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the literal holds amd64's math.Tan bits; %s may round differently", runtime.GOARCH)
	}
	c := DefaultCamera()
	want := float64(c.W) / 2 / math.Tan(30*math.Pi/180)
	if math.Float64bits(c.F) != math.Float64bits(want) {
		t.Errorf("F = %v (%#x), formula %v (%#x)", c.F, math.Float64bits(c.F), want, math.Float64bits(want))
	}
}

// TestCaptureRenderOrder holds CaptureInto's render order to sort.Sort
// on relDepthSorter for worlds of 0 to 20 actors whose depths repeat
// and include NaN, so ties and unordered values meet both the inline
// insertion sort (12 or fewer) and pdqsort (more).
func TestCaptureRenderOrder(t *testing.T) {
	depths := []float64{math.NaN(), -3, 5, 5, 20, 20, 40, 60, 60.5, 130, 200}
	rng := stats.NewRNG(11)
	c := DefaultCamera()
	var buf CaptureBuffer
	for n := 0; n <= 20; n++ {
		for trial := 0; trial < 40; trial++ {
			w := newSensorWorld()
			for range n {
				x, y := depths[rng.IntN(len(depths))], rng.Uniform(-6, 6)
				w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(x, y), Size: sim.SizeCar, Behavior: sim.Parked{}})
			}
			want := w.RelativeInto(nil)
			sort.Sort(&relDepthSorter{want})
			c.CaptureInto(&buf, w, 0)
			for i := range want {
				if buf.rel[i].ID != want[i].ID {
					t.Fatalf("%d actors, trial %d: render order %v, sort.Sort's %v", n, trial, ids(buf.rel), ids(want))
				}
			}
		}
	}
}

func ids(rel []sim.RelState) []sim.ActorID {
	out := make([]sim.ActorID, len(rel))
	for i := range rel {
		out[i] = rel[i].ID
	}
	return out
}

func TestCaptureSkipsBehind(t *testing.T) {
	w := newSensorWorld()
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(-20, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	frame := DefaultCamera().CaptureInto(&CaptureBuffer{}, w, 0)
	if len(frame.Truth) != 0 {
		t.Error("actor behind the EV must not be captured")
	}
}

func TestLidarClassRanges(t *testing.T) {
	w := newSensorWorld()
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(70, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	w.AddActor(&sim.Actor{Class: sim.ClassPedestrian, Pos: geom.V(70, 2), Size: sim.SizePedestrian, Behavior: sim.Parked{}})
	w.AddActor(&sim.Actor{Class: sim.ClassPedestrian, Pos: geom.V(15, 2), Size: sim.SizePedestrian, Behavior: sim.Parked{}})

	l := NewLidar(nil) // nil RNG: deterministic, no noise, no drops
	dets := l.Scan(w)
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2", len(dets))
	}
	for _, d := range dets {
		if d.Class == sim.ClassPedestrian && d.RelPos.X > l.PedestrianRange {
			t.Error("far pedestrian should not register")
		}
	}
}

func TestLidarNoiseWithinReason(t *testing.T) {
	w := newSensorWorld()
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(40, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	l := NewLidar(stats.NewRNG(11))
	var errs []float64
	for i := 0; i < 500; i++ {
		for _, d := range l.Scan(w) {
			errs = append(errs, d.RelPos.X-40)
		}
	}
	if len(errs) < 400 {
		t.Fatalf("too many drops: %d returns", len(errs))
	}
	if sd := stats.StdDev(errs); sd < 0.05 || sd > 0.4 {
		t.Errorf("noise stddev = %v, want ~0.15", sd)
	}
}

// BenchmarkCapture measures the frame loop's render: CaptureInto on a
// warm, reused CaptureBuffer: a Clear and one anti-aliased fill record
// per visible actor. A warm capture allocates nothing.
func BenchmarkCapture(b *testing.B) {
	w := newSensorWorld()
	for i := 0; i < 8; i++ {
		w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(float64(15+12*i), 0), Size: sim.SizeCar,
			Behavior: sim.Parked{}})
	}
	c := DefaultCamera()
	var buf CaptureBuffer
	c.CaptureInto(&buf, w, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.CaptureInto(&buf, w, i)
	}
}
