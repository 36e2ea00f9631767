package track

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/stats"
)

// refKalman is the textbook filter on dense matrices (refmat_test.go) —
// the historical implementation, kept as the reference Kalman must
// match bit for bit.
type refKalman struct {
	x, p *matrix
}

var (
	refF = matFromRows([][]float64{
		{1, 0, 1, 0},
		{0, 1, 0, 1},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
	})
	refQ = matDiag(0.15, 0.15, 0.08, 0.08)
	refH = matFromRows([][]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
	})
)

func (r *refKalman) predict() {
	r.x = refF.mul(r.x)
	r.p = refF.mul(r.p).mul(refF.transpose()).add(refQ)
}

func (r *refKalman) update(z geom.Vec2, sigmaU, sigmaV float64) error {
	R := matDiag(math.Max(sigmaU*sigmaU, 1), math.Max(sigmaV*sigmaV, 1))
	y := matColVec(z.X, z.Y).sub(refH.mul(r.x))
	s := refH.mul(r.p).mul(refH.transpose()).add(R)
	sInv, err := s.inverse()
	if err != nil {
		return fmt.Errorf("kalman update: %w", err)
	}
	k := r.p.mul(refH.transpose()).mul(sInv)
	r.x = r.x.add(k.mul(y))
	r.p = matIdentity(4).sub(k.mul(refH)).mul(r.p)
	return nil
}

// newKalman returns a filter Reset at center, as the Tracker starts a
// track.
func newKalman(center geom.Vec2) *Kalman {
	k := new(Kalman)
	k.Reset(center)
	return k
}

// kalmanPair is a filter and the reference started from the same state.
type kalmanPair struct {
	k   Kalman
	ref refKalman
}

func newPair(x [4]float64, p [16]float64) *kalmanPair {
	kp := &kalmanPair{k: Kalman{x: x, p: p}}
	kp.ref.x = matColVec(x[:]...)
	kp.ref.p = newMatrix(4, 4)
	for i, v := range p {
		kp.ref.p.set(i/4, i%4, v)
	}
	return kp
}

// correlatedP returns D + s·vvᵀ: positive semidefinite for s = 1 and
// d ≥ 0, possibly indefinite for s = -1.
func correlatedP(d, v [4]float64, s float64) [16]float64 {
	var p [16]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			p[4*i+j] = s * v[i] * v[j]
		}
		p[5*i] += d[i]
	}
	return p
}

// pivotSwaps reports whether the next update's elimination swaps rows
// (|S10| > |S00|).
func (kp *kalmanPair) pivotSwaps(sigmaU float64) bool {
	return math.Abs(kp.k.p[4]) > math.Abs(kp.k.p[0]+math.Max(sigmaU*sigmaU, 1))
}

// step names a comparison point in failure messages: a case label and
// a frame number.
type step struct {
	what  string
	frame int
}

func (kp *kalmanPair) predict(t *testing.T, at step) {
	t.Helper()
	kp.k.Predict()
	kp.ref.predict()
	kp.check(t, nil, nil, at)
}

func (kp *kalmanPair) update(t *testing.T, z geom.Vec2, su, sv float64, at step) error {
	t.Helper()
	err := kp.k.Update(z, su, sv)
	refErr := kp.ref.update(z, su, sv)
	kp.check(t, err, refErr, at)
	return err
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (kp *kalmanPair) check(t *testing.T, err, refErr error, at step) {
	t.Helper()
	if (err == nil) != (refErr == nil) || (err != nil && (err != errSingular || !errors.Is(refErr, errMatSingular))) {
		t.Fatalf("%v: error %v, reference %v", at, err, refErr)
	}
	for i := 0; i < 4; i++ {
		if got, want := kp.k.x[i], kp.ref.x.at(i, 0); !sameBits(got, want) {
			t.Fatalf("%v: x[%d] = %v (%#x), reference %v (%#x)", at, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i := 0; i < 16; i++ {
		if got, want := kp.k.p[i], kp.ref.p.at(i/4, i%4); !sameBits(got, want) {
			t.Fatalf("%v: P[%d][%d] = %v (%#x), reference %v (%#x)", at, i/4, i%4, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func skipOffAMD64(tb testing.TB) {
	if runtime.GOARCH != "amd64" {
		tb.Skipf("the dense reference may fuse multiply-adds on %s", runtime.GOARCH)
	}
}

// TestKalmanMatchesReference holds the fixed-size filter to the dense
// textbook filter bit for bit on seeded trajectories: x, every P entry
// and whether Update failed.
func TestKalmanMatchesReference(t *testing.T) {
	skipOffAMD64(t)
	negZero := math.Copysign(0, -1)
	initial := func(c geom.Vec2) [4]float64 { return [4]float64{c.X, c.Y, 0, 0} }
	fresh := newKalman(geom.Vec2{}).p

	// -0 center and measurement: only the "0 +" accumulator start turns
	// the residual -0 − (-0) into the dense kernel's -0 − (+0) = -0.
	kp := newPair(initial(geom.V(negZero, negZero)), fresh)
	kp.update(t, geom.V(negZero, negZero), 2, 2, step{"-0 update", 0})
	kp.predict(t, step{"-0 predict", 0})

	// Singular S at each pivot: S00 = 0 (first), and S = [[2,2],[2,2]]
	// (second, after eliminating column 0).
	kp = newPair(initial(geom.V(1, 2)), [16]float64{-1, 0, 0, 0, 0, 3, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1})
	if err := kp.update(t, geom.V(3, 4), 0, 0, step{"first pivot singular", 0}); err == nil {
		t.Fatal("S00 = 0: Update did not fail")
	}
	kp = newPair(initial(geom.V(1, 2)), [16]float64{1, 2, 0, 0, 2, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1})
	if err := kp.update(t, geom.V(3, 4), 0.5, 0.5, step{"second pivot singular", 0}); err == nil {
		t.Fatal("S = [[2,2],[2,2]]: Update did not fail")
	}

	rng := stats.NewRNG(14)
	sigma := func() float64 {
		switch rng.IntN(5) {
		case 0:
			return 0
		case 1:
			return rng.Uniform(0, 1) // below the R floor
		case 2:
			return rng.Uniform(20, 200)
		}
		return rng.Uniform(1, 12)
	}
	swaps, singular := 0, 0
	for traj := 0; traj < 1000; traj++ {
		c := geom.V(rng.Uniform(-50, 250), rng.Uniform(-20, 120))
		p := fresh
		if traj%3 != 0 {
			var d, v [4]float64
			for i := range d {
				d[i] = rng.Uniform(0, 30)
				v[i] = rng.Normal(0, 10)
			}
			s := 1.0
			if traj%25 == 1 {
				s = -1
			}
			p = correlatedP(d, v, s)
		}
		kp := newPair(initial(c), p)
		vel := geom.V(rng.Normal(0, 3), rng.Normal(0, 1))
		label := fmt.Sprint("trajectory ", traj)
		coast := 0
		for f := 0; f < 200; f++ {
			at := step{label, f}
			kp.predict(t, at)
			c = c.Add(vel)
			if coast > 0 {
				coast--
				continue
			}
			if rng.IntN(20) == 0 {
				coast = 1 + rng.IntN(15) // a run of predict-only frames
				continue
			}
			su, sv := sigma(), sigma()
			z := geom.V(c.X+rng.Normal(0, su), c.Y+rng.Normal(0, sv))
			if kp.pivotSwaps(su) {
				swaps++
			}
			if kp.update(t, z, su, sv, at) != nil {
				singular++
				break // the reference is the judge of when this happens
			}
		}
	}
	if swaps == 0 {
		t.Error("no trajectory took the pivot-swap branch (|S10| > |S00|)")
	}
	t.Logf("%d pivot swaps, %d singular updates", swaps, singular)
}

// fuzzReader hands out fuzz bytes, then zeros once they run out.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// signed maps a byte to a multiple of 1/4 in [-32, 32), with 0x80
// standing for -0.
func (r *fuzzReader) signed() float64 {
	b := r.next()
	if b == 0x80 {
		return math.Copysign(0, -1)
	}
	return float64(int8(b)) / 4
}

// FuzzKalman runs a predict/update script decoded from the fuzz bytes
// through Kalman and the reference. The first 12 bytes give the initial
// state, a covariance diagonal and a correlation vector (P = D + vvᵀ is
// positive semidefinite, so S ≥ R is well conditioned). Each further
// byte is one of at most 64 frames: bit 0 clear predicts only; bit 0
// set updates, after a predict when bit 1 is set too, with the next two
// bytes as the measurement — an offset from the current estimate, or
// absolute (and possibly -0) when bit 2 is set — and the two after as
// sigmas in [0, 8) px. Values stay finite, which is the domain the
// exactness argument covers.
func FuzzKalman(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		skipOffAMD64(t)
		r := fuzzReader(data)
		x := [4]float64{r.signed() * 8, r.signed() * 4, r.signed() / 4, r.signed() / 4}
		var d, v [4]float64
		for i := range d {
			d[i] = float64(r.next()) / 8
		}
		for i := range v {
			v[i] = r.signed()
		}
		kp := newPair(x, correlatedP(d, v, 1))
		for frame := 0; len(r) > 0 && frame < 64; frame++ {
			op := r.next()
			at := step{"fuzz", frame}
			if op&1 == 0 || op&2 != 0 {
				kp.predict(t, at)
			}
			if op&1 == 0 {
				continue
			}
			z := geom.V(r.signed(), r.signed())
			if op&4 == 0 {
				z = z.Add(kp.k.Center())
			}
			su, sv := float64(r.next())/32, float64(r.next())/32
			if kp.update(t, z, su, sv, at) != nil {
				return
			}
		}
	})
}

func BenchmarkKalman(b *testing.B) {
	k := newKalman(geom.V(100, 60))
	z := geom.V(100, 60)
	frame := func() {
		k.Predict()
		z.X += 0.8
		if err := k.Update(z, 4, 4); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		frame()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
}
