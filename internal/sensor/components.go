package sensor

import "github.com/robotack/robotack/internal/geom"

// Component is one 4-connected region of pixels at or above a labeling
// threshold, with the raw intensities around its box that sub-pixel
// edge refinement decodes.
type Component struct {
	// Box is the pixel bounding box and Area the pixel count.
	Box  geom.Rect
	Area int
	// Below is the mean intensity of the row just below Box, over Box's
	// columns; BelowIn reports whether that row lies inside the raster.
	Below   float64
	BelowIn bool
	// Left and Right are the mean intensities of the columns just left
	// and right of Box, over Box's rows; LeftIn and RightIn report
	// whether the column lies inside the raster.
	Left, Right     float64
	LeftIn, RightIn bool
}

// fgRun is one maximal horizontal run of foreground pixels, columns
// [x0, x1) of row y. During labeling, parent links it into a
// union-find forest whose root is always the component's lowest run
// index; a root run accumulates its component's box (minX..maxX-1,
// y..maxY) and pixel area.
type fgRun struct {
	x0, x1, y, parent      int
	minX, maxX, maxY, area int
}

// Components labels the 4-connected regions of pixels >= th and returns
// them in ascending order of each component's first pixel in row-major
// order: the order a row-major flood-fill scan discovers them in.
//
// The labeling is memoized on the image for th. Every write drops the
// memo, and a call with another threshold replaces it, so two readers
// of one unwritten frame share a single pass over its pixels. The
// returned slice is valid until then; callers must not modify it.
func (im *Image) Components(th float64) []Component {
	if !im.memoOK || im.memoTh != th {
		im.label(th)
		im.memoOK, im.memoTh = true, th
	}
	return im.comps
}

// label fills im.comps with the components at threshold th.
//
// It scans only the window that can hold foreground — silhouettes cover
// a tiny fraction of the raster — and labels runs, not pixels: each row
// of the window becomes its maximal foreground runs, and a run joins
// every run of the previous row it shares a column with (diagonal-only
// contact does not connect).
func (im *Image) label(th float64) {
	runs := im.runs[:0]
	wx0, wy0, wx1, wy1 := im.ForegroundWindow(th)
	above := 0 // first run of the previous row
	for y := wy0; y < wy1; y++ {
		row := im.Pix[y*im.W+wx0 : y*im.W+wx1]
		rowStart := len(runs)
		for x := 0; x < len(row); {
			if !(row[x] >= th) {
				x++
				continue
			}
			s := x
			for x < len(row) && row[x] >= th {
				x++
			}
			i := len(runs)
			x0, x1 := wx0+s, wx0+x
			runs = append(runs, fgRun{x0: x0, x1: x1, y: y, parent: i})
			// Previous-row runs ending left of this one cannot touch
			// this run or any later run of the row.
			for above < rowStart && runs[above].x1 <= x0 {
				above++
			}
			for j := above; j < rowStart && runs[j].x0 < x1; j++ {
				union(runs, i, j)
			}
		}
		above = rowStart
	}

	// Every root has a lower index than the rest of its component, so
	// one ascending pass initializes each root's accumulator before any
	// other run folds into it.
	for i := range runs {
		r := &runs[i]
		root := find(runs, i)
		r.parent = root
		if root == i {
			r.minX, r.maxX, r.maxY, r.area = r.x0, r.x1, r.y, r.x1-r.x0
			continue
		}
		acc := &runs[root]
		acc.minX = min(acc.minX, r.x0)
		acc.maxX = max(acc.maxX, r.x1)
		acc.maxY = max(acc.maxY, r.y)
		acc.area += r.x1 - r.x0
	}
	comps := im.comps[:0]
	for i := range runs {
		r := &runs[i]
		if r.parent != i {
			continue
		}
		c := Component{
			Box:  geom.R(float64(r.minX), float64(r.y), float64(r.maxX-r.minX), float64(r.maxY-r.y+1)),
			Area: r.area,
		}
		if y := r.maxY + 1; y < im.H {
			c.Below, c.BelowIn = im.rowMean(y, r.minX, r.maxX), true
		}
		if x := r.minX - 1; x >= 0 {
			c.Left, c.LeftIn = im.colMean(x, r.y, r.maxY+1), true
		}
		if x := r.maxX; x < im.W {
			c.Right, c.RightIn = im.colMean(x, r.y, r.maxY+1), true
		}
		comps = append(comps, c)
	}
	im.runs, im.comps = runs, comps
}

// rowMean returns the mean of row y over columns [x0, x1), summed left
// to right.
func (im *Image) rowMean(y, x0, x1 int) float64 {
	sum := 0.0
	for _, v := range im.Pix[y*im.W+x0 : y*im.W+x1] {
		sum += v
	}
	return sum / float64(x1-x0)
}

// colMean returns the mean of column x over rows [y0, y1), summed top
// to bottom.
func (im *Image) colMean(x, y0, y1 int) float64 {
	sum := 0.0
	for y := y0; y < y1; y++ {
		sum += im.Pix[y*im.W+x]
	}
	return sum / float64(y1-y0)
}

// find returns the root of run i, halving the path as it goes.
func find(runs []fgRun, i int) int {
	for runs[i].parent != i {
		runs[i].parent = runs[runs[i].parent].parent
		i = runs[i].parent
	}
	return i
}

// union joins the trees of runs a and b under the lower root index.
func union(runs []fgRun, a, b int) {
	ra, rb := find(runs, a), find(runs, b)
	if ra < rb {
		runs[rb].parent = ra
	} else if rb < ra {
		runs[ra].parent = rb
	}
}
