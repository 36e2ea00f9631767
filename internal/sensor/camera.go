package sensor

import (
	"math"
	"sort"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
)

// Camera is the EV's front camera: a pinhole model mounted at the front
// bumper that renders actor silhouettes into a grayscale raster. The
// raster — not the ground-truth boxes — is what the object detector
// consumes and what the trajectory hijacker perturbs, preserving the
// paper's pixel-level attack path.
type Camera struct {
	// W, H are the raster dimensions in pixels.
	W, H int
	// F is the focal length in pixels.
	F float64
	// MountHeight is the optical-center height above ground in meters.
	MountHeight float64
	// MinDepth and MaxDepth bound the rendered depth range in meters.
	MinDepth, MaxDepth float64
	// Foreground is the silhouette intensity; Background the empty-road
	// intensity. The detector thresholds between them.
	Foreground, Background float64
}

// DefaultCamera returns the camera used across the reproduction:
// 192x108 pixels (1/10 of the paper's 1920x1080) with a ~60 degree
// horizontal field of view.
func DefaultCamera() *Camera {
	w := 192
	return &Camera{
		W: w, H: 108,
		F:           float64(w) / 2 / math.Tan(30*math.Pi/180),
		MountHeight: 1.4,
		MinDepth:    3,
		MaxDepth:    130,
		Foreground:  0.9,
		Background:  0.05,
	}
}

// Projection is the ground-truth image-space footprint of one actor,
// used as labels for detector characterization and never shown to the
// ADS-side detector.
type Projection struct {
	ID    sim.ActorID
	Class sim.Class
	Box   geom.Rect // pixel coordinates
	Depth float64   // meters ahead of the camera
}

// Frame is one captured camera frame.
type Frame struct {
	Index int
	Image *Image
	// Truth holds the ground-truth projections of every visible actor,
	// ordered far to near (render order).
	Truth []Projection
}

// Project computes the image-space bounding box of an object at
// relative ground position rel (x ahead of the camera, y to the right)
// with the given size. ok is false when the object is outside the
// camera's depth range or entirely off-frame.
func (c *Camera) Project(rel geom.Vec2, size sim.Size) (geom.Rect, bool) {
	depth := rel.X
	if depth < c.MinDepth || depth > c.MaxDepth {
		return geom.Rect{}, false
	}
	cx, cy := float64(c.W)/2, float64(c.H)/2
	u := cx + c.F*rel.Y/depth
	wPx := c.F * size.Width / depth
	hPx := c.F * size.Height / depth
	vBottom := cy + c.F*c.MountHeight/depth
	box := geom.R(u-wPx/2, vBottom-hPx, wPx, hPx)
	if box.Intersect(geom.R(0, 0, float64(c.W), float64(c.H))).Empty() {
		return geom.Rect{}, false
	}
	return box, true
}

// BackProject recovers the relative ground position of an object from
// its image bounding box, inverting Project using the box's bottom
// center (the transformation step "T" in the paper's Fig. 1). ok is
// false for boxes whose bottom edge is above the horizon.
func (c *Camera) BackProject(box geom.Rect) (rel geom.Vec2, ok bool) {
	cx, cy := float64(c.W)/2, float64(c.H)/2
	vBottom := box.Min.Y + box.H
	if vBottom <= cy+1e-9 {
		return geom.Vec2{}, false
	}
	depth := c.F * c.MountHeight / (vBottom - cy)
	u := box.Min.X + box.W/2
	return geom.V(depth, (u-cx)*depth/c.F), true
}

// WidthFromBox recovers the metric width of an object from its pixel
// box and depth.
func (c *Camera) WidthFromBox(box geom.Rect, depth float64) float64 {
	return box.W * depth / c.F
}

// BoxClipped reports whether a detected box touches the left, right or
// bottom raster border. Clipped boxes back-project unreliably: the
// visible center no longer matches the physical center (side clip) or
// the ground contact line is off-frame (bottom clip).
func (c *Camera) BoxClipped(box geom.Rect) bool {
	return box.Min.X <= 1 || box.Min.X+box.W >= float64(c.W)-1 ||
		box.Min.Y+box.H >= float64(c.H)-1
}

// CaptureBuffer owns the image, the ground-truth slice and the sort
// scratch one camera capture needs, so the per-frame render reuses one
// image, with its write list and labeling scratch, for a whole episode:
// a warm capture allocates nothing.
type CaptureBuffer struct {
	frame  Frame
	rel    []sim.RelState
	sorter relDepthSorter
}

// relDepthSorter orders relative states far to near (render order).
// It implements sort.Interface on a struct pointer so sorting performs
// no interface-conversion allocation; the comparison is identical to
// the historical sort.Slice call, so the render order — and therefore
// every rendered pixel — is unchanged.
type relDepthSorter struct{ rel []sim.RelState }

func (s *relDepthSorter) Len() int           { return len(s.rel) }
func (s *relDepthSorter) Less(i, j int) bool { return s.rel[i].Pos.X > s.rel[j].Pos.X }
func (s *relDepthSorter) Swap(i, j int)      { s.rel[i], s.rel[j] = s.rel[j], s.rel[i] }

// CaptureInto renders the world into buf's frame, reusing its image
// and slices: zero heap allocations once the buffer is warm. The
// returned frame (and its image) is valid until the next CaptureInto
// with the same buffer.
func (c *Camera) CaptureInto(buf *CaptureBuffer, w *sim.World, frameIndex int) *Frame {
	img := buf.frame.Image
	if img == nil || img.W != c.W || img.H != c.H {
		img = NewImage(c.W, c.H)
		buf.frame.Image = img
	}
	img.Clear(c.Background)

	rel := w.RelativeInto(buf.rel)
	buf.rel = rel
	buf.sorter.rel = rel
	sort.Sort(&buf.sorter)

	truth := buf.frame.Truth[:0]
	for i := range rel {
		r := &rel[i]
		box, ok := c.Project(r.Pos, r.Size)
		if !ok {
			continue
		}
		img.FillRectAA(box, c.Foreground)
		truth = append(truth, Projection{ID: r.ID, Class: r.Class, Box: box, Depth: r.Pos.X})
	}
	buf.frame.Index = frameIndex
	buf.frame.Truth = truth
	return &buf.frame
}

// Tap is the man-in-the-middle interception point on the camera link
// (the Argus-style Ethernet tap of the paper's threat model, §III-B).
// A Tap sees — and may rewrite — every frame before the ADS perception
// stack does. The ground-truth labels are NOT exposed to the tap: the
// malware must run its own inference, as in the paper.
type Tap interface {
	// Process may mutate frame.Image in place.
	Process(img *Image, frameIndex int)
}

// NopTap is the benign pass-through tap.
type NopTap struct{}

var _ Tap = NopTap{}

// Process implements Tap.
func (NopTap) Process(*Image, int) {}
