package sensor

import (
	"math"
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
	if got := im.MassAbove(im.Bounds(), 0.5); got != 9 {
		t.Errorf("mass = %d, want 9 (3x3 clipped region)", got)
	}
	if im.At(2, 2) != 1 || im.At(3, 3) != 0 {
		t.Error("fill boundary wrong")
	}
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

// referenceFillRectAA is the per-pixel form of FillRectAA, kept as the
// differential oracle for its span-based kernel: both coverages and the
// blend are evaluated pixel by pixel.
func referenceFillRectAA(im *Image, r geom.Rect, v float64) {
	yLo, yHi := r.Min.Y, r.Min.Y+r.H
	xLo, xHi := r.Min.X, r.Min.X+r.W
	y0 := max(int(math.Floor(yLo)), 0)
	y1 := min(int(math.Ceil(yHi)), im.H)
	x0 := max(int(math.Floor(xLo)), 0)
	x1 := min(int(math.Ceil(xHi)), im.W)
	for y := y0; y < y1; y++ {
		cy := overlap(float64(y), float64(y)+1, yLo, yHi)
		for x := x0; x < x1; x++ {
			c := cy * overlap(float64(x), float64(x)+1, xLo, xHi)
			if c <= 0 {
				continue
			}
			p := &im.Pix[y*im.W+x]
			*p = (1-c)*(*p) + c*v
		}
	}
	im.markDirty(x0, y0, x1, y1)
}

// sameRaster fails t unless got and want hold bitwise-equal pixels and
// the same dirty window.
func sameRaster(t *testing.T, name string, got, want *Image) {
	t.Helper()
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("%s: pixel (%d, %d) = %v, want %v", name, i%want.W, i/want.W, got.Pix[i], want.Pix[i])
		}
	}
	gx0, gy0, gx1, gy1 := got.ForegroundWindow(0.5)
	wx0, wy0, wx1, wy1 := want.ForegroundWindow(0.5)
	if [4]int{gx0, gy0, gx1, gy1} != [4]int{wx0, wy0, wx1, wy1} {
		t.Fatalf("%s: window %v, want %v", name, [4]int{gx0, gy0, gx1, gy1}, [4]int{wx0, wy0, wx1, wy1})
	}
}

func TestFillRectAAMatchesReference(t *testing.T) {
	const w, h = 40, 24
	fixed := []geom.Rect{
		geom.R(3.25, 4.5, 10.75, 6.125), // sub-pixel on every edge
		geom.R(5, 6, 7, 3),              // pixel-aligned
		geom.R(-6.5, -3.25, 10, 8),      // partly off the top-left
		geom.R(w-4.5, h-2.75, 12, 9),    // partly off the bottom-right
		geom.R(-20, 5, 8, 4),            // fully off-raster left
		geom.R(w+3, h+1, 5, 5),          // fully off-raster right and below
		geom.R(8, 8, 0, 5),              // zero width
		geom.R(8, 8, 5, 0),              // zero height
		geom.R(12.5, 10.5, -4, 3),       // negative width
		geom.R(12.5, 10.5, 3, -4),       // negative height
		geom.R(-10, -10, w+20, h+20),    // covers the whole raster
		geom.R(17.9, 3.1, 0.15, 0.3),    // inside one pixel
		geom.R(math.NaN(), 2, 4, 4),     // non-finite edge
		geom.R(2, 2, math.Inf(1), 4),    // unbounded width
	}
	rng := stats.NewRNG(13)
	for round := 0; round < 500; round++ {
		got, want := NewImage(w, h), NewImage(w, h)
		if round%3 == 0 { // foreground base: the window is the whole raster
			got.Clear(0.6)
			want.Clear(0.6)
		}
		if round%7 == 0 { // a non-finite pixel under the fills
			got.Set(10, 9, math.Inf(1))
			want.Set(10, 9, math.Inf(1))
		}
		// Overlapping repeated fills, fixed edge cases mixed in.
		for n := 0; n < 1+rng.IntN(8); n++ {
			r := geom.R(rng.Uniform(-8, w+4), rng.Uniform(-8, h+4), rng.Uniform(-2, w/2), rng.Uniform(-2, h/2))
			if rng.IntN(3) == 0 {
				r = fixed[rng.IntN(len(fixed))]
			}
			v := []float64{0.9, 0.05, rng.Float64()}[rng.IntN(3)]
			got.FillRectAA(r, v)
			referenceFillRectAA(want, r, v)
			sameRaster(t, "fill", got, want)
		}
		// Fills onto a clone leave the original untouched and match the
		// reference applied to a clone.
		before := got.Clone()
		gc, wc := got.Clone(), want.Clone()
		r := geom.R(rng.Uniform(-4, w), rng.Uniform(-4, h), rng.Uniform(0, w), rng.Uniform(0, h))
		gc.FillRectAA(r, 0.9)
		referenceFillRectAA(wc, r, 0.9)
		sameRaster(t, "clone", gc, wc)
		sameRaster(t, "original after clone fill", got, before)
	}
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
	frame := c.Capture(w, 0)
	if len(frame.Truth) != 1 {
		t.Fatalf("truth count = %d", len(frame.Truth))
	}
	box := frame.Truth[0].Box
	inside := frame.Image.MassAbove(box, 0.5)
	if inside == 0 {
		t.Fatal("silhouette not rendered")
	}
	// Anti-aliased boundary pixels may extend up to one pixel past the
	// exact projection.
	grown := geom.R(box.Min.X-1, box.Min.Y-1, box.W+2, box.H+2)
	outside := frame.Image.MassAbove(frame.Image.Bounds(), 0.5) - frame.Image.MassAbove(grown, 0.5)
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
	frame := c.Capture(w, 0)
	if len(frame.Truth) != 2 {
		t.Fatalf("truth count = %d", len(frame.Truth))
	}
	// Truth is ordered far to near.
	if frame.Truth[0].Depth < frame.Truth[1].Depth {
		t.Error("truth should be ordered far to near")
	}
}

func TestCaptureSkipsBehind(t *testing.T) {
	w := newSensorWorld()
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(-20, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	frame := DefaultCamera().Capture(w, 0)
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
// warm, reused CaptureBuffer, whose Clear rewrites only the previous
// frame's dirty window. A warm capture allocates nothing.
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
