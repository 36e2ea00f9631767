package detect

import (
	"math"
	"slices"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// referenceComponents is the per-pixel flood-fill labeler the run-length
// labeler replaced, kept as the differential oracle: it scans the
// foreground window row-major and floods each unvisited foreground
// pixel's 4-connected region with an explicit stack. It reads each
// pixel through At once, up front. It returns the boxes and areas of
// the components of at least minArea pixels.
func referenceComponents(img *sensor.Image, th float64, minArea int) (boxes []geom.Rect, areas []int) {
	n := img.W * img.H
	pix := make([]float64, n)
	for i := range pix {
		pix[i] = img.At(i%img.W, i/img.W)
	}
	visited := make([]bool, n)
	wx0, wy0, wx1, wy1 := img.ForegroundWindow(th)
	for wy := wy0; wy < wy1; wy++ {
		for wx := wx0; wx < wx1; wx++ {
			start := wy*img.W + wx
			if visited[start] || pix[start] < th {
				continue
			}
			minX, minY := wx, wy
			maxX, maxY := minX, minY
			area := 0
			stack := []int{start}
			visited[start] = true
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				x, y := p%img.W, p/img.W
				area++
				minX, maxX = min(minX, x), max(maxX, x)
				minY, maxY = min(minY, y), max(maxY, y)
				for _, q := range [4]int{p - 1, p + 1, p - img.W, p + img.W} {
					if q < 0 || q >= n || visited[q] {
						continue
					}
					// Horizontal neighbors must stay on the same row.
					if (q == p-1 || q == p+1) && q/img.W != y {
						continue
					}
					if pix[q] >= th {
						visited[q] = true
						stack = append(stack, q)
					}
				}
			}
			if area >= minArea {
				boxes = append(boxes, geom.R(float64(minX), float64(minY), float64(maxX-minX+1), float64(maxY-minY+1)))
				areas = append(areas, area)
			}
		}
	}
	return boxes, areas
}

// refBottom is the detector's bottom-edge refinement from before the
// labeler carried edge statistics: it reads the row just below box
// through At.
func refBottom(img *sensor.Image, box geom.Rect) float64 {
	edge := box.Min.Y + box.H
	y := int(edge)
	if y >= img.H {
		return edge
	}
	x0, x1 := int(box.Min.X), int(box.Min.X+box.W)
	sum, n := 0.0, 0
	for x := x0; x < x1; x++ {
		sum += img.At(x, y)
		n++
	}
	if n == 0 {
		return edge
	}
	return edge + geom.Clamp((sum/float64(n)-background)/(foreground-background), 0, 1)
}

// refCenterU is the detector's horizontal-center refinement from before
// the labeler carried edge statistics: it reads the columns just left
// and right of box through At.
func refCenterU(img *sensor.Image, box geom.Rect) float64 {
	y0, y1 := int(box.Min.Y), int(box.Min.Y+box.H)
	colFrac := func(x int) float64 {
		if x < 0 || x >= img.W {
			return 0
		}
		sum, n := 0.0, 0
		for y := y0; y < y1; y++ {
			sum += img.At(x, y)
			n++
		}
		if n == 0 {
			return 0
		}
		return geom.Clamp((sum/float64(n)-background)/(foreground-background), 0, 1)
	}
	left := box.Min.X - colFrac(int(box.Min.X)-1)
	right := box.Min.X + box.W + colFrac(int(box.Min.X+box.W))
	return (left + right) / 2
}

// referenceDetections is what a noiseless detector with cfg reports on
// img, built from the flood-fill labeling and the pre-move refinements.
func referenceDetections(cfg Config, img *sensor.Image) []Detection {
	boxes, areas := referenceComponents(img, cfg.Threshold, cfg.MinArea)
	var dets []Detection
	for i, box := range boxes {
		cls := sim.ClassVehicle
		if box.H/box.W >= pedestrianAspect {
			cls = sim.ClassPedestrian
		}
		dets = append(dets, Detection{
			Box: box, Raw: box,
			Bottom:  refBottom(img, box),
			CenterU: refCenterU(img, box),
			Class:   cls, Area: areas[i],
			Score: geom.Clamp(float64(areas[i])/40.0, 0.3, 1.0),
		})
	}
	return dets
}

// labelerFor returns a noiseless detector labeling at th and minArea.
func labelerFor(th float64, minArea int) *Detector {
	cfg := DefaultConfig()
	cfg.DisableNoise = true
	cfg.Threshold, cfg.MinArea = th, minArea
	return New(cfg, nil)
}

// checkAgainstReference fails t unless d reports on img exactly what the
// reference does on a memo-free copy of it: same components, same order,
// same boxes, areas and refined edges, bit for bit.
func checkAgainstReference(t *testing.T, d *Detector, img *sensor.Image, name string) []Detection {
	t.Helper()
	want := referenceDetections(d.cfg, img.Clone())
	got := d.Detect(img)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (th=%v, MinArea=%d):\n got  %+v\n want %+v", name, d.cfg.Threshold, d.cfg.MinArea, got, want)
	}
	return got
}

// artImage renders art into a w x h image cleared to base, top-left
// corner at (ox, oy). Every pixel whose value differs from base goes
// through Set, so the foreground window is the bounding box of those
// pixels.
func artImage(w, h, ox, oy int, base float64, art []string) *sensor.Image {
	const th = 0.5
	values := map[rune]float64{
		'#': 0.9,
		'+': 0.6,
		'=': th,                    // exactly at the threshold: foreground
		'-': math.Nextafter(th, 0), // just below it: background
		'.': 0.05,
	}
	img := sensor.NewImage(w, h)
	img.Clear(base)
	for y, line := range art {
		for x, c := range line {
			if v := values[c]; v != base {
				img.Set(ox+x, oy+y, v)
			}
		}
	}
	return img
}

// TestComponentsMatchReference checks the detector's use of the image's
// shared labeling: its MinArea cut, component order and edge
// refinements, against the flood-fill labeler and the pixel loops the
// detector ran before labeling moved onto the image.
func TestComponentsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		base float64
		art  []string
		want int // components at MinArea 1, art alone on its raster
	}{
		{"diagonal-checker", 0.05, []string{
			"#.#.",
			".#.#",
			"#.#.",
		}, 6},
		{"diagonal-blocks", 0.05, []string{
			"##..",
			"##..",
			"..##",
			"..##",
		}, 2},
		{"U", 0.05, []string{
			"#...#",
			"#...#",
			"#...#",
			"#####",
		}, 1},
		{"comb", 0.05, []string{
			"#.#.#.#",
			"#.#.#.#",
			"#######",
		}, 1},
		{"late-merge", 0.05, []string{
			"#...#...#",
			"#...#...#",
			"#...#...#",
			"#...#...#",
			"#########",
		}, 1},
		{"interleaved", 0.05, []string{
			"#.#.#",
			"#.#.#",
			"#.###",
			"#....",
			"#####",
		}, 2},
		{"spiral", 0.05, []string{
			"#########",
			"#.......#",
			"#.#####.#",
			"#.#...#.#",
			"#.#.#.#.#",
			"#.#.###.#",
			"#.#.....#",
			"#.#######",
		}, 1},
		{"threshold", 0.05, []string{
			"##=##-##",
			"=......=",
		}, 2},
		{"borders", 0.05, []string{
			"##....##",
			"#......#",
			"...##...",
			"#......#",
			"##....##",
		}, 5},
		{"min-area", 0.05, []string{
			"#..##..###",
			"..........",
			".#.......#",
			".#.......#",
		}, 5},
		{"full-window", 0.6, []string{
			"++.++",
			"++.++",
			".....",
			"+.+.+",
		}, 5},
	}
	for _, tc := range cases {
		w, h := len(tc.art[0]), len(tc.art)
		for _, minArea := range []int{1, 2, 3} {
			d := labelerFor(0.5, minArea)
			// Alone on its raster: components touch the raster borders.
			got := checkAgainstReference(t, d, artImage(w, h, 0, 0, tc.base, tc.art), tc.name)
			if minArea == 1 && len(got) != tc.want {
				t.Errorf("%s: %d components, want %d", tc.name, len(got), tc.want)
			}
			// Inside a larger raster: components touch the window borders.
			checkAgainstReference(t, d, artImage(w+7, h+5, 3, 2, tc.base, tc.art), tc.name+"/offset")
		}
	}

	// Seeded random anti-aliased rectangle rasters, each read by two
	// detectors in a row, as the malware's and the ADS's detectors read
	// one frame: the second reuses the image's labeling when it labels
	// at the same threshold, and must report exactly what the first
	// would have.
	rng := stats.NewRNG(20)
	first, second := labelerFor(0.5, 2), labelerFor(0.5, 2)
	for i := 0; i < 3000; i++ {
		w, h := 8+rng.IntN(40), 6+rng.IntN(30)
		img := sensor.NewImage(w, h)
		base := 0.05
		if rng.IntN(10) == 0 {
			base = 0.6 // foreground background: full-raster window
		}
		img.Clear(base)
		for n := 1 + rng.IntN(6); n > 0; n-- {
			v := 0.9
			switch rng.IntN(6) {
			case 0:
				v = 0.05 // erase: splits what it crosses
			case 1:
				v = rng.Uniform(0, 1)
			}
			fw, fh := float64(w), float64(h)
			img.FillRectAA(geom.R(rng.Uniform(-4, fw+2), rng.Uniform(-4, fh+2),
				rng.Uniform(0, fw/2), rng.Uniform(0, fh/2)), v)
		}
		for _, d := range [2]*Detector{first, second} {
			d.cfg.MinArea = 1 + rng.IntN(4)
			d.cfg.Threshold = 0.5
			if rng.IntN(4) == 0 {
				d.cfg.Threshold = rng.Uniform(0.1, 0.9)
			}
			checkAgainstReference(t, d, img, "random")
		}
	}
}

// fuzzRaster decodes fuzz bytes into a raster and a labeling setup:
// byte 0 is the width minus 2 (mod 31), byte 1 the threshold and byte 3
// the background (both /255), byte 2 the MinArea (mod 4); every further
// byte is one pixel (/255), row-major. Pixels equal to the background
// are left untouched, so the foreground window is their bounding box.
// Rasters are at least two columns wide: on a single column p+1 is the
// pixel below p, and the reference's same-row test for horizontal
// neighbors rejects it, so the reference never connects vertically
// there.
func fuzzRaster(data []byte) (img *sensor.Image, th float64, minArea int, ok bool) {
	if len(data) < 5 {
		return nil, 0, 0, false
	}
	w := 2 + int(data[0]%31)
	th = float64(data[1]) / 255
	minArea = int(data[2] % 4)
	base := float64(data[3]) / 255
	pix := data[4:min(len(data), 4+32*32)]
	h := (len(pix) + w - 1) / w
	img = sensor.NewImage(w, h)
	img.Clear(base)
	for k, b := range pix {
		if v := float64(b) / 255; v != base {
			img.Set(k%w, k/w, v)
		}
	}
	return img, th, minArea, true
}

// FuzzComponents runs two noiseless detectors with the same setup on one
// raster, the second on the labeling the first left on the image, and
// checks both against the reference.
func FuzzComponents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		img, th, minArea, ok := fuzzRaster(data)
		if !ok {
			return
		}
		checkAgainstReference(t, labelerFor(th, minArea), img, "fuzz")
		checkAgainstReference(t, labelerFor(th, minArea), img, "fuzz/shared")
	})
}
