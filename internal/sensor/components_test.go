package sensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/stats"
)

// referenceComponents is the per-pixel flood-fill labeler the run-length
// labeler replaced, kept as the differential oracle. It runs on the
// raster model, not on the image under test: it scans the raster's
// foreground window row-major and floods each unvisited foreground
// pixel's 4-connected region with an explicit stack. Edge statistics
// come from refBelow and refColumn.
func referenceComponents(img *raster, th float64) []Component {
	n := img.w * img.h
	visited := make([]bool, n)
	var comps []Component
	wx0, wy0, wx1, wy1 := img.window(th)
	for wy := wy0; wy < wy1; wy++ {
		for wx := wx0; wx < wx1; wx++ {
			start := wy*img.w + wx
			if visited[start] || img.pix[start] < th {
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
				x, y := p%img.w, p/img.w
				area++
				minX, maxX = min(minX, x), max(maxX, x)
				minY, maxY = min(minY, y), max(maxY, y)
				for _, q := range [4]int{p - 1, p + 1, p - img.w, p + img.w} {
					if q < 0 || q >= n || visited[q] {
						continue
					}
					// Horizontal neighbors must stay on the same row.
					if (q == p-1 || q == p+1) && q/img.w != y {
						continue
					}
					if img.pix[q] >= th {
						visited[q] = true
						stack = append(stack, q)
					}
				}
			}
			c := Component{
				Box:  geom.R(float64(minX), float64(minY), float64(maxX-minX+1), float64(maxY-minY+1)),
				Area: area,
			}
			c.Below, c.BelowIn = refBelow(img, c.Box)
			c.Left, c.LeftIn = refColumn(img, c.Box, int(c.Box.Min.X)-1)
			c.Right, c.RightIn = refColumn(img, c.Box, int(c.Box.Min.X+c.Box.W))
			comps = append(comps, c)
		}
	}
	return comps
}

// refBelow is the detector's bottom-edge pixel loop from before the
// labeler carried edge statistics: the mean of the row just below box
// over its columns, and whether that row lies inside the raster.
func refBelow(img *raster, box geom.Rect) (float64, bool) {
	y := int(box.Min.Y + box.H)
	if y >= img.h {
		return 0, false
	}
	x0, x1 := int(box.Min.X), int(box.Min.X+box.W)
	sum, n := 0.0, 0
	for x := x0; x < x1; x++ {
		sum += img.at(x, y)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// refColumn is the detector's side-column pixel loop from before the
// labeler carried edge statistics: the mean of column x over box's
// rows, and whether x lies inside the raster.
func refColumn(img *raster, box geom.Rect, x int) (float64, bool) {
	if x < 0 || x >= img.w {
		return 0, false
	}
	y0, y1 := int(box.Min.Y), int(box.Min.Y+box.H)
	sum, n := 0.0, 0
	for y := y0; y < y1; y++ {
		sum += img.at(x, y)
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// checkAgainstReference fails t unless m's image labels at th exactly
// like the reference on m's raster: same components in the same order,
// with the same boxes, areas and edge statistics.
func checkAgainstReference(t *testing.T, m mirror, th float64, name string) []Component {
	t.Helper()
	want := referenceComponents(m.ref, th)
	got := m.im.Components(th)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (th=%v):\n got  %+v\n want %+v", name, th, got, want)
	}
	return got
}

// artImage renders art into a w x h image cleared to base, top-left
// corner at (ox, oy). Every pixel whose value differs from base goes
// through Set, so the window is the bounding box of those pixels.
func artImage(w, h, ox, oy int, base float64, art []string) mirror {
	const th = 0.5
	values := map[rune]float64{
		'#': 0.9,
		'+': 0.6,
		'=': th,                    // exactly at the threshold: foreground
		'-': math.Nextafter(th, 0), // just below it: background
		'.': 0.05,
	}
	m := newMirror(w, h)
	m.Clear(base)
	for y, line := range art {
		for x, c := range line {
			if v := values[c]; v != base {
				m.Set(ox+x, oy+y, v)
			}
		}
	}
	return m
}

// TestCellPaintMatchesAt paints overlapping anti-aliased fills, one
// and two pixels wide among them, two of zero width or height (whose
// coverage is 0, so they must leave their pixels alone), and a Set,
// over bases and values that include NaNs with distinct payloads and
// infinities, and holds every painted cell to At at each of its
// pixels, bit for bit.
func TestCellPaintMatchesAt(t *testing.T) {
	specials := []float64{
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		math.Inf(-1), math.Inf(1), 0.05, 0.9,
	}
	fills := []geom.Rect{
		geom.R(1.3, 1.6, 6.4, 4.2), geom.R(2.5, 0.5, 5.5, 7.25), geom.R(0.2, 2.5, 9.5, 2.25),
		geom.R(8.25, 1.5, 0.5, 0.25), geom.R(9.75, 4.5, 1, 1.75),
		geom.R(4.5, 2.25, 0, 3), geom.R(6.5, 7.5, 2.25, 0),
	}
	for _, base := range specials {
		for _, v := range specials {
			for _, v2 := range specials {
				im := NewImage(12, 9)
				im.Clear(base)
				for i, r := range fills {
					im.FillRectAA(r, [2]float64{v, v2}[i%2])
				}
				im.Set(3, 3, specials[0])
				g := &im.grid
				g.cut(im.writes, 0, 0, im.W, im.H, im.W, im.H)
				g.paint(im.base, im.writes)
				for r := 0; r+1 < len(g.ys); r++ {
					for c := 0; c+1 < len(g.xs); c++ {
						cell := math.Float64bits(g.cell(c, r))
						for y := g.ys[r]; y < g.ys[r+1]; y++ {
							for x := g.xs[c]; x < g.xs[c+1]; x++ {
								if px := math.Float64bits(im.At(x, y)); cell != px {
									t.Fatalf("base %v, values %v and %v: cell (%d, %d) is %#x, pixel (%d, %d) %#x",
										base, v, v2, c, r, cell, x, y, px)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestComponentsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		base float64
		art  []string
		want int // components, art alone on its raster
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
		{"small", 0.05, []string{
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
		// Alone on its raster: components touch the raster borders.
		got := checkAgainstReference(t, artImage(w, h, 0, 0, tc.base, tc.art), 0.5, tc.name)
		if len(got) != tc.want {
			t.Errorf("%s: %d components, want %d", tc.name, len(got), tc.want)
		}
		// Inside a larger raster: components touch the window borders.
		checkAgainstReference(t, artImage(w+7, h+5, 3, 2, tc.base, tc.art), 0.5, tc.name+"/offset")
	}

	// Seeded random anti-aliased rectangle rasters. Each is labeled at
	// two thresholds, then cleared, repainted and labeled again, so the
	// memo is replaced and dropped and the labeler's scratch is reused.
	rng := stats.NewRNG(20)
	for i := 0; i < 1500; i++ {
		w, h := 8+rng.IntN(40), 6+rng.IntN(30)
		img := newMirror(w, h)
		for frame := 0; frame < 2; frame++ {
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
			checkAgainstReference(t, img, 0.5, "random")
			checkAgainstReference(t, img, rng.Uniform(0.1, 0.9), "random/second-threshold")
		}
	}
}

// fuzzRaster decodes fuzz bytes into a raster and two thresholds: byte 0
// is the width minus 2 (mod 31), bytes 1 and 2 the thresholds and byte 3
// the background (all /255); every further byte is one pixel (/255),
// row-major. Pixels equal to the background are left untouched, so the
// window is their bounding box. Rasters are at least two columns wide:
// on a single column p+1 is the pixel below p, and the reference's
// same-row test for horizontal neighbors rejects it, so the reference
// never connects vertically there.
func fuzzRaster(data []byte) (img mirror, th, th2 float64, ok bool) {
	if len(data) < 5 {
		return mirror{}, 0, 0, false
	}
	w := 2 + int(data[0]%31)
	th, th2 = float64(data[1])/255, float64(data[2])/255
	base := float64(data[3]) / 255
	pix := data[4:min(len(data), 4+32*32)]
	h := (len(pix) + w - 1) / w
	img = newMirror(w, h)
	img.Clear(base)
	for k, b := range pix {
		if v := float64(b) / 255; v != base {
			img.Set(k%w, k/w, v)
		}
	}
	return img, th, th2, true
}

// FuzzComponents labels a raster at one threshold, then a second, then
// the first again, checking each labeling against the reference.
func FuzzComponents(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		img, th, th2, ok := fuzzRaster(data)
		if !ok {
			return
		}
		for _, th := range [3]float64{th, th2, th} {
			checkAgainstReference(t, img, th, "fuzz")
		}
	})
}

// FuzzLabelMemo runs a script of labelings at two thresholds interleaved
// with writes, mirrored onto the raster model. It checks every labeling,
// memoized or not, against the reference on the raster, and every
// pixel's bits and the window at the end of the script.
//
// Bytes 0-5 are the width (2 + b%15), the height (1 + b%16), the two
// thresholds (b/255), the background (b/255) and a pixel count (b mod
// width×height+1). That many pixel bytes follow (b/255, row-major; the
// rest of the raster stays background). Each further byte starts one
// step, op = b%7, with its operands in the bytes after it:
//
//	0  Components at the first threshold
//	1  Components at the second threshold
//	2  Set(x, y, v)                 x, y may lie one pixel off the raster
//	3  FillRect(x, y, w, h, v)      integer rectangle, may overhang
//	4  FillRectAA(x, y, w, h, v)    fractional rectangle, may overhang
//	5  Clear(v)
//	6  Set(x, y, v)                 a pixel of the window (any pixel when
//	                                it is empty) rewritten with its own
//	                                value v, read from the raster
//
// The script stops at the first step whose operands run past the end.
func FuzzLabelMemo(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		w, h := 2+int(data[0]%15), 1+int(data[1]%16)
		ths := [2]float64{float64(data[2]) / 255, float64(data[3]) / 255}
		base := float64(data[4]) / 255
		npix := int(data[5]) % (w*h + 1)
		data = data[6:]
		img := newMirror(w, h)
		img.Clear(base)
		for k := 0; k < npix && k < len(data); k++ {
			if v := float64(data[k]) / 255; v != base {
				img.Set(k%w, k/w, v)
			}
		}
		data = data[min(npix, len(data)):]

		arity := [7]int{0, 0, 3, 5, 5, 1, 2}
		for step := 0; len(data) > 0; step++ {
			op := int(data[0] % 7)
			if len(data) < 1+arity[op] {
				break
			}
			a := data[1 : 1+arity[op]]
			data = data[1+arity[op]:]
			switch op {
			case 0, 1:
				checkAgainstReference(t, img, ths[op], fmt.Sprintf("step %d", step))
			case 2:
				img.Set(int(a[0])%(w+2)-1, int(a[1])%(h+2)-1, float64(a[2])/255)
			case 3:
				img.FillRect(geom.R(float64(int(a[0])%(w+4)-2), float64(int(a[1])%(h+4)-2),
					float64(int(a[2])%(w+1)), float64(int(a[3])%(h+1))), float64(a[4])/255)
			case 4:
				fw, fh := float64(w), float64(h)
				img.FillRectAA(geom.R(float64(a[0])/255*(fw+4)-2, float64(a[1])/255*(fh+4)-2,
					float64(a[2])/255*fw, float64(a[3])/255*fh), float64(a[4])/255)
			case 5:
				img.Clear(float64(a[0]) / 255)
			case 6:
				r := img.ref
				x0, y0, x1, y1 := r.dx0, r.dy0, r.dx1, r.dy1
				if x1 <= x0 || y1 <= y0 {
					x0, y0, x1, y1 = 0, 0, w, h
				}
				x, y := x0+int(a[0])%(x1-x0), y0+int(a[1])%(y1-y0)
				img.Set(x, y, r.at(x, y))
			}
		}
		sameRaster(t, "end of script", img.im, img.ref)
	})
}
