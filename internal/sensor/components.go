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
	// columns; BelowIn reports whether that row lies inside the image.
	Below   float64
	BelowIn bool
	// Left and Right are the mean intensities of the columns just left
	// and right of Box, over Box's rows; LeftIn and RightIn report
	// whether the column lies inside the image.
	Left, Right     float64
	LeftIn, RightIn bool
}

// fgRun is one maximal horizontal run of foreground cells: columns
// [x0, x1) of rows [y0, y1), every pixel at or above the threshold.
// During labeling, parent links it into a union-find forest whose root
// is always the component's lowest run index; a root run accumulates
// its component's box (minX..maxX-1, y0..maxY) and pixel area.
type fgRun struct {
	x0, x1, y0, y1, parent int
	minX, maxX, maxY, area int
}

// cellGrid is the labeler's picture of the foreground window: the
// window cut at every write's edges, and at the inner edges of every
// anti-aliased fill's first and last column and row, into cells. Each
// cell lies in one coverage class of every write (see FillRectAA), so
// its pixels go through the same blends in the same order and are all
// equal. Cell (c, r) covers columns [xs[c], xs[c+1]) and rows
// [ys[r], ys[r+1]).
type cellGrid struct {
	xs, ys []int // ascending cut positions; the first and last bound the window
	// xi[xs[c]] == c and yi[ys[r]] == r; other entries are stale.
	xi, yi []int
	vals   []float64 // cell intensities, row-major
	base   float64   // the intensity outside the window
}

// cut builds the cuts of window [x0,x1) x [y0,y1) of a w x h image;
// the window holds every write's box.
func (g *cellGrid) cut(ws []write, x0, y0, x1, y1, w, h int) {
	xs := insertCut(insertCut(g.xs[:0], x0), x1)
	ys := insertCut(insertCut(g.ys[:0], y0), y1)
	for i := range ws {
		wr := &ws[i]
		xs = insertCut(insertCut(xs, wr.x0), wr.x1)
		ys = insertCut(insertCut(ys, wr.y0), wr.y1)
		if wr.aa {
			xs = insertCut(insertCut(xs, wr.x0+1), wr.x1-1)
			ys = insertCut(insertCut(ys, wr.y0+1), wr.y1-1)
		}
	}
	g.xs, g.ys = xs, ys
	g.xi = cutIndex(g.xi, xs, w)
	g.yi = cutIndex(g.yi, ys, h)
}

// insertCut inserts p into the ascending cuts unless it is there.
func insertCut(cuts []int, p int) []int {
	i := len(cuts)
	for i > 0 && cuts[i-1] > p {
		i--
	}
	if i > 0 && cuts[i-1] == p {
		return cuts
	}
	cuts = append(cuts, p)
	for j := len(cuts) - 1; j > i; j-- {
		cuts[j] = cuts[j-1]
	}
	cuts[i] = p
	return cuts
}

// cutIndex returns idx, grown to n+1 entries, with idx[cuts[i]] == i.
func cutIndex(idx, cuts []int, n int) []int {
	if len(idx) < n+1 {
		idx = make([]int, n+1)
	}
	for i, p := range cuts {
		idx[p] = i
	}
	return idx
}

// paint sets every cell to base, then applies the writes in order, each
// to the cells inside its box.
func (g *cellGrid) paint(base float64, ws []write) {
	nx, ny := len(g.xs)-1, len(g.ys)-1
	if cap(g.vals) < nx*ny {
		g.vals = make([]float64, nx*ny)
	}
	vals := g.vals[:nx*ny]
	for i := range vals {
		vals[i] = base
	}
	g.vals, g.base = vals, base
	for i := range ws {
		w := &ws[i]
		c0, c1 := g.xi[w.x0], g.xi[w.x1]
		for r := g.yi[w.y0]; r < g.yi[w.y1]; r++ {
			ry := class(g.ys[r], w.y0, w.y1)
			row := vals[r*nx+c0 : r*nx+c1]
			for k := range row {
				w.apply(&row[k], ry, class(g.xs[c0+k], w.x0, w.x1))
			}
		}
	}
}

// cell returns the intensity of cell (c, r), or the base when c or r
// lies outside the grid.
func (g *cellGrid) cell(c, r int) float64 {
	nx, ny := len(g.xs)-1, len(g.ys)-1
	if c < 0 || c >= nx || r < 0 || r >= ny {
		return g.base
	}
	return g.vals[r*nx+c]
}

// rowMean returns the mean of cell row r over columns [x0, x1), which
// are cuts, adding one pixel at a time, left to right.
func (g *cellGrid) rowMean(r, x0, x1 int) float64 {
	sum := 0.0
	for c := g.xi[x0]; c < g.xi[x1]; c++ {
		v := g.cell(c, r)
		for x := g.xs[c]; x < g.xs[c+1]; x++ {
			sum += v
		}
	}
	return sum / float64(x1-x0)
}

// colMean returns the mean of cell column c over rows [y0, y1), which
// are cuts, adding one pixel at a time, top to bottom.
func (g *cellGrid) colMean(c, y0, y1 int) float64 {
	sum := 0.0
	for r := g.yi[y0]; r < g.yi[y1]; r++ {
		v := g.cell(c, r)
		for y := g.ys[r]; y < g.ys[r+1]; y++ {
			sum += v
		}
	}
	return sum / float64(y1-y0)
}

// Components labels the 4-connected regions of pixels >= th and returns
// them in ascending order of each component's first pixel in row-major
// order: the order a row-major flood-fill scan discovers them in.
//
// The labeling is memoized on the image for th. Every write drops the
// memo, and a call with another threshold replaces it, so two readers
// of one unwritten frame share a single labeling. The returned slice is
// valid until then; callers must not modify it.
func (im *Image) Components(th float64) []Component {
	if !im.memoOK || im.memoTh != th {
		im.label(th)
		im.memoOK, im.memoTh = true, th
	}
	return im.comps
}

// label fills im.comps with the components at threshold th.
//
// It labels only the window that can hold foreground, and labels cells,
// not pixels: the writes are painted onto the cell grid, each band of
// cell rows becomes its maximal runs of foreground cells, and a run
// joins every run of the band above it that shares a column with it
// (diagonal-only contact does not connect). A frame with one silhouette
// has nine cells.
func (im *Image) label(th float64) {
	wx0, wy0, wx1, wy1 := im.ForegroundWindow(th)
	g := &im.grid
	g.cut(im.writes, wx0, wy0, wx1, wy1, im.W, im.H)
	g.paint(im.base, im.writes)
	nx := len(g.xs) - 1

	runs := im.runs[:0]
	above := 0 // first run of the band above
	for r := 0; r+1 < len(g.ys); r++ {
		row := g.vals[r*nx : (r+1)*nx]
		rowStart := len(runs)
		for c := 0; c < len(row); {
			if !(row[c] >= th) {
				c++
				continue
			}
			s := c
			for c < len(row) && row[c] >= th {
				c++
			}
			i := len(runs)
			x0, x1 := g.xs[s], g.xs[c]
			runs = append(runs, fgRun{x0: x0, x1: x1, y0: g.ys[r], y1: g.ys[r+1], parent: i})
			// Runs of the band above ending left of this one cannot
			// touch this run or any later run of the band.
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
		area := (r.x1 - r.x0) * (r.y1 - r.y0)
		if root == i {
			r.minX, r.maxX, r.maxY, r.area = r.x0, r.x1, r.y1-1, area
			continue
		}
		acc := &runs[root]
		acc.minX = min(acc.minX, r.x0)
		acc.maxX = max(acc.maxX, r.x1)
		acc.maxY = max(acc.maxY, r.y1-1)
		acc.area += area
	}
	comps := im.comps[:0]
	for i := range runs {
		r := &runs[i]
		if r.parent != i {
			continue
		}
		c := Component{
			Box:  geom.R(float64(r.minX), float64(r.y0), float64(r.maxX-r.minX), float64(r.maxY-r.y0+1)),
			Area: r.area,
		}
		// The box's edges are cuts, so the row below it is the cell row
		// starting at maxY+1, the column left of it lies in the cell
		// column before minX's and the one right of it in maxX's. Past
		// the window's edge these name no cell and read the base.
		if r.maxY+1 < im.H {
			c.Below, c.BelowIn = g.rowMean(g.yi[r.maxY+1], r.minX, r.maxX), true
		}
		if r.minX > 0 {
			c.Left, c.LeftIn = g.colMean(g.xi[r.minX]-1, r.y0, r.maxY+1), true
		}
		if r.maxX < im.W {
			c.Right, c.RightIn = g.colMean(g.xi[r.maxX], r.y0, r.maxY+1), true
		}
		comps = append(comps, c)
	}
	im.runs, im.comps = runs, comps
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
