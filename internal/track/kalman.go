// Package track implements the multiple-object-tracking (MOT) half of
// the perception system described in §II-B of the paper: per-object
// Kalman filters ("F*" in Fig. 1) with a constant-velocity motion
// model, the Hungarian assignment step ("M"), and the track lifecycle
// manager that ties them together in the tracking-by-detection
// paradigm.
//
// The Kalman filter here is the component the paper identifies as the
// critical vulnerability (§III-B): it models measurement noise as
// zero-mean Gaussian, so an adversary who injects drift within one
// standard deviation of that model is indistinguishable from noise.
package track

import (
	"errors"
	"math"

	"github.com/robotack/robotack/internal/geom"
)

// Diagonals of the initial covariance P0 and the process noise Q.
const (
	p0Pos, p0Vel = 25, 16
	qPos, qVel   = 0.15, 0.08
)

// errSingular is Update's error when the innovation covariance S has no
// inverse; the Tracker counts such an update as a miss.
var errSingular = errors.New("kalman update: matrix is singular")

// Kalman is a constant-velocity Kalman filter over an image-space
// bounding-box center. State is [u, v, du, dv] in pixels and pixels per
// frame; time steps are whole camera frames (dt = 1), so the transition
// is F = [[I, I], [0, I]] and the measurement model H = [I 0] (2x2
// blocks), with diagonal Q and R.
//
// Predict and Update are that structure written out on fixed-size
// arrays, and they produce the same bits as the textbook formulation
// on dense matrices (P = F·P·Fᵀ + Q, S = H·P·Hᵀ + R, K = P·Hᵀ·S⁻¹,
// P = (I − K·H)·P, each product accumulated from +0 in ascending k,
// skipping zero left-hand entries). Three facts make that exact for
// finite values:
//   - every dense dot product starts from +0, so each kept sum is
//     written "0 + first term": a -0 operand comes out +0 there too;
//   - an accumulator that starts at +0 never becomes -0, so adding the
//     ±0 product of a structural zero of F, H or I − K·H (or of a zero
//     entry the dense kernel skips) changes no bits, and those terms
//     are dropped, as are multiplications by the 1s of F and H;
//   - the kept terms are added in ascending k, the dense order.
//
// The 2x2 inverse of S is the dense Gauss-Jordan elimination with
// partial pivoting step for step, including its zero-factor skips,
// which are not no-ops for -0 operands. TestKalmanMatchesReference and
// FuzzKalman hold the filter to the dense reference bit for bit.
//
// Products that feed an addition are wrapped in float64(...): the Go
// spec makes an explicit conversion a rounding point, so the compiler
// cannot fuse them into multiply-adds (as it may on arm64, ppc64le and
// s390x) and the filter yields the same bits on every architecture.
type Kalman struct {
	x [4]float64  // state
	p [16]float64 // covariance, row-major 4x4
}

// Reset initializes the filter at a measured center with zero velocity
// and a large initial uncertainty.
func (k *Kalman) Reset(center geom.Vec2) {
	*k = Kalman{x: [4]float64{center.X, center.Y, 0, 0}}
	k.p[0], k.p[5], k.p[10], k.p[15] = p0Pos, p0Pos, p0Vel, p0Vel
}

// Predict advances the state one frame: x = Fx, P = FPFᵀ + Q.
func (k *Kalman) Predict() {
	x, p := &k.x, &k.p
	x[0], x[1], x[2], x[3] = (0+x[0])+x[2], (0+x[1])+x[3], 0+x[2], 0+x[3]
	// F·P adds covariance rows 2, 3 onto rows 0, 1; ·Fᵀ then adds
	// columns 2, 3 onto columns 0, 1.
	var a [16]float64
	for j := 0; j < 4; j++ {
		a[j] = (0 + p[j]) + p[8+j]
		a[4+j] = (0 + p[4+j]) + p[12+j]
		a[8+j] = 0 + p[8+j]
		a[12+j] = 0 + p[12+j]
	}
	for i := 0; i < 16; i += 4 {
		p[i] = (0 + a[i]) + a[i+2]
		p[i+1] = (0 + a[i+1]) + a[i+3]
		p[i+2] = 0 + a[i+2]
		p[i+3] = 0 + a[i+3]
	}
	p[0] += qPos
	p[5] += qPos
	p[10] += qVel
	p[15] += qVel
}

// Update incorporates a measured center z with per-axis measurement
// standard deviations (sigmaU, sigmaV) in pixels.
func (k *Kalman) Update(z geom.Vec2, sigmaU, sigmaV float64) error {
	x, p := &k.x, &k.p
	// Innovation y = z − Hx and its covariance S = HPHᵀ + R, with R
	// floored at 1 px².
	y0 := z.X - (0 + x[0])
	y1 := z.Y - (0 + x[1])
	s00 := (0 + p[0]) + geom.Max(sigmaU*sigmaU, 1)
	s11 := (0 + p[5]) + geom.Max(sigmaV*sigmaV, 1)

	// S⁻¹ by Gauss-Jordan elimination with partial pivoting. Entries of
	// the working copy that no later step reads are not computed.
	a00, a01, a10, a11 := s00, 0+p[1], 0+p[4], s11
	i00, i01, i10, i11 := 1.0, 0.0, 0.0, 1.0
	maxAbs := math.Abs(a00)
	if v := math.Abs(a10); v > maxAbs {
		maxAbs = v
		a00, a01, a10, a11 = a10, a11, a00, a01
		i00, i01, i10, i11 = i10, i11, i00, i01
	}
	if maxAbs < 1e-300 {
		return errSingular
	}
	a01 /= a00
	i00 /= a00
	i01 /= a00
	if f := a10; f != 0 {
		a11 -= float64(f * a01)
		i10 -= float64(f * i00)
		i11 -= float64(f * i01)
	}
	if math.Abs(a11) < 1e-300 {
		return errSingular
	}
	i10 /= a11
	i11 /= a11
	if f := a01; f != 0 {
		i00 -= float64(f * i10)
		i01 -= float64(f * i11)
	}

	// Gain K = P·Hᵀ·S⁻¹ (4x2, row-major) and x = x + K·y.
	var g [8]float64
	for i := 0; i < 4; i++ {
		ph0, ph1 := 0+p[4*i], 0+p[4*i+1]
		g[2*i] = (0 + float64(ph0*i00)) + float64(ph1*i10)
		g[2*i+1] = (0 + float64(ph0*i01)) + float64(ph1*i11)
		x[i] += (0 + float64(g[2*i]*y0)) + float64(g[2*i+1]*y1)
	}

	// P = (I − K·H)·P. Row i of I − K·H is I's row minus K's row in
	// columns 0, 1 and I's row in columns 2, 3, whose 1 in rows 2 and 3
	// adds P's own row last.
	var np [16]float64
	for i := 0; i < 4; i++ {
		var id0, id1 float64
		switch i {
		case 0:
			id0 = 1
		case 1:
			id1 = 1
		}
		t0, t1 := id0-(0+g[2*i]), id1-(0+g[2*i+1])
		for j := 0; j < 4; j++ {
			v := (0 + float64(t0*p[j])) + float64(t1*p[4+j])
			if i >= 2 {
				v += p[4*i+j]
			}
			np[4*i+j] = v
		}
	}
	k.p = np
	return nil
}

// Center returns the current state estimate of the box center.
func (k *Kalman) Center() geom.Vec2 { return geom.V(k.x[0], k.x[1]) }
