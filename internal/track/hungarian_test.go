package track

import (
	"math"
	"slices"
	"testing"

	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
)

// hungarianValues are the entries FuzzHungarian draws: the forbidden
// cost, zero, a cost at the edge of float resolution, two small costs
// that inputs tie by drawing twice, the tracker's largest gated cost,
// and NaN and +Inf, which a degenerate box can produce.
var hungarianValues = [...]float64{Forbidden, 0, 1e-12, 0.25, 0.5, 2, math.NaN(), math.Inf(1)}

// fuzzCost decodes an n x m cost matrix: byte 0 is n (1 + b%8), byte 1
// m (1 + b%8), and every entry starts Forbidden. Each further triple
// of bytes sets one entry: row b%n, column b%m, value
// hungarianValues[b%8]. A trailing partial triple is ignored.
func fuzzCost(data []byte) [][]float64 {
	if len(data) < 2 {
		return nil
	}
	n, m := 1+int(data[0]%8), 1+int(data[1]%8)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, m)
		for j := range cost[i] {
			cost[i][j] = Forbidden
		}
	}
	for data = data[2:]; len(data) >= 3; data = data[3:] {
		cost[int(data[0])%n][int(data[1])%m] = hungarianValues[data[2]%8]
	}
	return cost
}

// kept returns the pairs of an assignment that the Tracker keeps: row
// i's column when it costs less than Forbidden, else -1.
func kept(cost [][]float64, assignment []int) []int {
	out := make([]int, len(cost))
	for i, j := range assignment {
		out[i] = -1
		if j >= 0 && cost[i][j] < Forbidden {
			out[i] = j
		}
	}
	return out
}

// FuzzHungarian holds solve, which returns the feasible pairs at once
// when they already form a matching, to the full solver on every
// input: after the Tracker's filter both keep the same pairs. The
// solver under test first solves a dense matrix, so it starts dirty,
// as the Tracker's does on every frame after the first.
func FuzzHungarian(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cost := fuzzCost(data)
		if cost == nil {
			return
		}
		n, m := len(cost), len(cost[0])
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, m)
		}
		var s, ref hungarianScratch
		s.solve(dense)
		got := kept(cost, s.solve(cost))
		dim := max(n, m)
		ref.grow(dim, n)
		want := kept(cost, ref.jv(cost, n, m, dim))
		if !slices.Equal(got, want) {
			t.Fatalf("cost %v: solve keeps %v, the full solver %v", cost, got, want)
		}
	})
}

// TestTrackerNaNDetectionReturns steps a tracker over a detection with
// a NaN box, then over a finite one. The NaN track's cost row is all
// NaN, so it cannot be matched and must coast. The full solver used to
// loop for ever on such a row; so did solve on the matrices below.
func TestTrackerNaNDetectionReturns(t *testing.T) {
	tr := NewTracker(DefaultConfig())
	nan := math.NaN()
	tr.Step([]detect.Detection{det(geom.R(nan, nan, nan, nan), sim.ClassVehicle)})
	tracks := tr.Step([]detect.Detection{det(geom.R(50, 40, 12, 9), sim.ClassVehicle)})
	if len(tracks) == 0 || tracks[0].ID != 1 || !tracks[0].Coasting() {
		t.Fatalf("got %d tracks, want track 1, the NaN one, first and coasting", len(tracks))
	}
	var s hungarianScratch
	for _, cost := range [][][]float64{
		{{math.NaN()}},
		{{Forbidden, math.NaN()}, {Forbidden, math.Inf(1)}},
		{{math.NaN(), 0.5}, {math.Inf(1), math.NaN()}},
	} {
		if got := kept(cost, s.solve(cost)); !slices.ContainsFunc(got, func(j int) bool { return j < 0 }) {
			t.Errorf("cost %v: kept %v, want an unmatched row", cost, got)
		}
	}
}
