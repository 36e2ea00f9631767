package detect

import (
	"math"
	"slices"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/stats"
)

// referenceComponents is the per-pixel flood-fill labeler the run-length
// labeler replaced, kept as the differential oracle: it scans the
// foreground window row-major and floods each unvisited foreground
// pixel's 4-connected region with an explicit stack.
func referenceComponents(img *sensor.Image, th float64, minArea int) []component {
	n := img.W * img.H
	visited := make([]bool, n)
	var comps []component
	wx0, wy0, wx1, wy1 := img.ForegroundWindow(th)
	for wy := wy0; wy < wy1; wy++ {
		for wx := wx0; wx < wx1; wx++ {
			start := wy*img.W + wx
			if visited[start] || img.Pix[start] < th {
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
					if img.Pix[q] >= th {
						visited[q] = true
						stack = append(stack, q)
					}
				}
			}
			if area >= minArea {
				comps = append(comps, component{
					box:  geom.R(float64(minX), float64(minY), float64(maxX-minX+1), float64(maxY-minY+1)),
					area: area,
				})
			}
		}
	}
	return comps
}

// labelerFor returns a noiseless detector labeling at th and minArea.
func labelerFor(th float64, minArea int) *Detector {
	cfg := DefaultConfig()
	cfg.DisableNoise = true
	cfg.Threshold, cfg.MinArea = th, minArea
	return New(cfg, nil)
}

// checkAgainstReference fails t unless d labels img exactly like the
// reference: same components, same order, same boxes and areas.
func checkAgainstReference(t *testing.T, d *Detector, img *sensor.Image, name string) []component {
	t.Helper()
	want := referenceComponents(img, d.cfg.Threshold, d.cfg.MinArea)
	got := d.components(img)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (th=%v, MinArea=%d):\n got  %v\n want %v", name, d.cfg.Threshold, d.cfg.MinArea, got, want)
	}
	return got
}

// artImage renders art into a w x h image cleared to base, top-left
// corner at (ox, oy). Every pixel whose value differs from base goes
// through Set, so the dirty window is the bounding box of those pixels.
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

	// Seeded random anti-aliased rectangle rasters, labeled by one
	// detector so its scratch is reused across sizes and thresholds.
	rng := stats.NewRNG(20)
	d := labelerFor(0.5, 2)
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
				v = rng.Float64()
			}
			fw, fh := float64(w), float64(h)
			img.FillRectAA(geom.R(rng.Uniform(-4, fw+2), rng.Uniform(-4, fh+2),
				rng.Uniform(0, fw/2), rng.Uniform(0, fh/2)), v)
		}
		d.cfg.MinArea = 1 + rng.IntN(4)
		d.cfg.Threshold = 0.5
		if rng.IntN(4) == 0 {
			d.cfg.Threshold = rng.Uniform(0.1, 0.9)
		}
		checkAgainstReference(t, d, img, "random")
	}
}

// fuzzRaster decodes fuzz bytes into a raster and a labeling setup:
// byte 0 is the width minus 2 (mod 31), byte 1 the threshold and byte 3
// the background (both /255), byte 2 the MinArea (mod 4); every further
// byte is one pixel (/255), row-major. Pixels equal to the background
// are left untouched, so the dirty window is their bounding box. Rasters
// are at least two columns wide: on a single column p+1 is the pixel
// below p, and the reference's same-row test for horizontal neighbors
// rejects it, so the reference never connects vertically there.
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

func FuzzComponents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		img, th, minArea, ok := fuzzRaster(data)
		if !ok {
			return
		}
		checkAgainstReference(t, labelerFor(th, minArea), img, "fuzz")
	})
}
