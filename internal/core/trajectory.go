package core

import (
	"math"

	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/track"
)

// Trajectory hijacker tuning (paper §IV-C, Eq. 4): shifts up to ~0.9
// sigma per frame, staying within 85% of the association gate.
const (
	// stealthFraction scales the per-frame shift inside the Kalman
	// noise envelope: omega_t in [mu - sigma, mu + sigma] of the
	// class's characterized measurement noise.
	stealthFraction float64 = 0.9
	// gateFraction caps the cumulative displacement of the reported box
	// from the (replica) tracker's prediction at this fraction of the
	// association gate — the M <= lambda constraint that keeps the
	// detection associated with its original tracker. It is ignored for
	// Disappear (the paper relaxes the constraint there).
	gateFraction float64 = 0.85
	// maxStepM caps the per-frame drift in ground meters: drifting
	// faster than the fusion follows would dissociate the camera
	// evidence from the fused object and waste the perturbation.
	maxStepM float64 = 0.3
	// background and foreground are the raster intensities used when
	// painting and erasing silhouette strips.
	background float64 = 0.05
	foreground float64 = 0.9
)

// TrajectoryHijacker perturbs camera frames so the target's detected
// bounding box drifts laterally (Move_Out / Move_In) or vanishes
// (Disappear). It uses the ADS tracker's association gate to honor the
// constraint of Eq. 4 — the threat model grants the attacker the ADS
// source code (§III-B).
type TrajectoryHijacker struct {
	vector Vector
	// direction is +1 to shift the box toward larger u (image right),
	// -1 toward smaller u.
	direction float64
	// targetOffsetPx is Omega in pixels: the total lateral displacement
	// to reach (then hold).
	targetOffsetPx float64
	// delay postpones the drift (Move_In times the fake cut-in to
	// materialize only when the EV is too close to brake comfortably).
	delay int
	// stepCapPx is maxStepM converted to pixels at the target's depth.
	stepCapPx float64
	// offsetPx is the accumulated applied shift.
	offsetPx float64
	// shiftFrames counts frames spent still enlarging the offset — the
	// K' of §VI-E.
	shiftFrames int
	holding     bool
}

// SetDelay postpones the drift by n frames.
func (th *TrajectoryHijacker) SetDelay(n int) {
	if n > 0 {
		th.delay = n
	}
}

// AddDelay postpones the drift by n further frames (policy timing
// jitter stacks on top of the Move_In cut-in timing).
func (th *TrajectoryHijacker) AddDelay(n int) {
	if n > 0 {
		th.delay += n
	}
}

// SetStepCapPx bounds the per-frame drift in pixels.
func (th *TrajectoryHijacker) SetStepCapPx(px float64) {
	if px > 0 {
		th.stepCapPx = px
	}
}

// NewTrajectoryHijacker prepares a hijack of the given vector.
// directionRight selects the lateral shift direction; targetOffsetPx is
// Omega expressed in pixels at the target's depth.
func NewTrajectoryHijacker(v Vector, directionRight bool, targetOffsetPx float64) *TrajectoryHijacker {
	dir := -1.0
	if directionRight {
		dir = 1.0
	}
	return &TrajectoryHijacker{
		vector:         v,
		direction:      dir,
		targetOffsetPx: math.Abs(targetOffsetPx),
	}
}

// ShiftFrames returns K' (Fig. 7): the frames that enlarged the offset,
// or for Disappear every frame that erased the target.
func (th *TrajectoryHijacker) ShiftFrames() int { return th.shiftFrames }

// Offset returns the currently applied lateral offset in pixels.
func (th *TrajectoryHijacker) Offset() float64 { return th.offsetPx * th.direction }

// Perturb rewrites img so that the target detection det appears
// shifted (or erased). adsPredicted is the replica-tracker prediction
// of where the ADS currently believes the box to be; it anchors the
// association constraint. Returns the applied per-frame shift in
// pixels.
func (th *TrajectoryHijacker) Perturb(img *sensor.Image, det detect.Detection, adsPredicted geom.Rect, cls sim.Class) float64 {
	if th.vector == VectorDisappear {
		// Erase the silhouette entirely: the detector sees background,
		// a misdetection indistinguishable from the natural runs of
		// Fig. 5. The association constraint is relaxed (paper §IV-C).
		// K' counts every erased frame: no code checks when the ADS's
		// track drops, so a Disappear K' is the attacked frames with a
		// detection (ROADMAP item 4).
		th.shiftFrames++
		grow := geom.R(det.Raw.Min.X-1, det.Raw.Min.Y-1, det.Raw.W+2, det.Raw.H+2)
		img.FillRect(grow, background)
		return 0
	}
	if th.delay > 0 {
		th.delay--
		return 0
	}

	// Per-frame stealth budget: within [mu-sigma, mu+sigma] of the
	// class noise model, normalized by box width (§IV-C).
	np := detect.Noise(cls)
	budget := stealthFraction * (math.Abs(np.MuX) + np.SigmaX) * det.Raw.W
	if th.stepCapPx > 0 && budget > th.stepCapPx {
		budget = th.stepCapPx
	}

	// Association constraint M <= lambda: the shifted box center must
	// stay within gateFraction of the gate around the ADS tracker's
	// predicted center.
	gate := gateFraction * track.Gate(cls, adsPredicted.W)
	predCenter := adsPredicted.Center().X
	trueCenter := det.Raw.Center().X

	step := budget
	if remaining := th.targetOffsetPx - th.offsetPx; step > remaining {
		step = remaining
	}
	// Cap so that |trueCenter + offset - predCenter| <= gate.
	maxOffset := gate - th.direction*(trueCenter-predCenter)
	if total := th.offsetPx + step; total > maxOffset {
		step = math.Max(maxOffset-th.offsetPx, 0)
	}
	if step > 0 {
		th.offsetPx += step
		th.shiftFrames++
	} else if th.offsetPx >= th.targetOffsetPx {
		th.holding = true
	}

	th.applyShift(img, det.Raw)
	return step * th.direction
}

// applyShift rewrites the silhouette of box shifted by the accumulated
// offset: the vacated strip becomes background, the newly covered strip
// becomes foreground. Only pixels overlapping the original or shifted
// box are touched — the adversarial patch intersects the detected box,
// per the IoU(o + omega, patch) >= gamma constraint of Eq. 4.
func (th *TrajectoryHijacker) applyShift(img *sensor.Image, box geom.Rect) {
	off := th.offsetPx * th.direction
	if off == 0 {
		return
	}
	shifted := box.Translate(geom.V(off, 0))
	// Erase the original silhouette area not covered by the shifted box.
	if math.Abs(off) >= box.W {
		img.FillRectAA(box, background)
	} else if off > 0 {
		img.FillRectAA(geom.R(box.Min.X, box.Min.Y, off, box.H), background)
	} else {
		img.FillRectAA(geom.R(shifted.Min.X+shifted.W, box.Min.Y, -off, box.H), background)
	}
	// Paint the shifted silhouette.
	img.FillRectAA(shifted, foreground)
}
