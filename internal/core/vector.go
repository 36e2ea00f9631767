// Package core implements RoboTack, the paper's contribution: smart
// malware that sits on the EV's camera link and hijacks one object's
// perceived trajectory at the most damaging moment.
//
// The package mirrors the paper's decomposition:
//
//   - the scenario matcher (§IV-A, Table I) decides WHAT to attack;
//   - the safety hijacker (§IV-B) — a neural network predicting the
//     future safety potential under a k-frame attack, searched with
//     binary search — decides WHEN and for HOW LONG;
//   - the trajectory hijacker (§IV-C, Eq. 4) decides HOW: per-frame
//     pixel perturbations bounded by the Kalman noise envelope and the
//     Hungarian association constraint.
//
// Malware ties the three together per Algorithm 1 and sits on the
// camera link, where it sees and may rewrite every frame before the
// ADS does.
// Baseline-Random and "R w/o SH" (random timing) variants are provided
// for the paper's comparisons.
package core

import (
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/sim"
)

// Vector is an attack vector from the paper's §III-C taxonomy.
type Vector int

// Attack vectors.
const (
	VectorNone Vector = iota
	VectorMoveOut
	VectorMoveIn
	VectorDisappear
)

// String implements fmt.Stringer.
func (v Vector) String() string {
	switch v {
	case VectorNone:
		return "none"
	case VectorMoveOut:
		return "Move_Out"
	case VectorMoveIn:
		return "Move_In"
	case VectorDisappear:
		return "Disappear"
	default:
		return fmt.Sprintf("vector(%d)", int(v))
	}
}

// Trajectory classifies the target object's current lateral motion
// relative to the EV lane.
type Trajectory int

// Trajectory classes (rows of Table I).
const (
	TrajectoryKeep Trajectory = iota + 1
	TrajectoryMovingIn
	TrajectoryMovingOut
)

// String implements fmt.Stringer.
func (t Trajectory) String() string {
	switch t {
	case TrajectoryKeep:
		return "keep"
	case TrajectoryMovingIn:
		return "moving-in"
	case TrajectoryMovingOut:
		return "moving-out"
	default:
		return fmt.Sprintf("trajectory(%d)", int(t))
	}
}

// ClassifyTrajectory derives the Table I row from the object's lateral
// position and velocity: motion toward the lane center is "moving in",
// away is "moving out", and anything below the deadband is "keep".
func ClassifyTrajectory(relY, velY, deadband float64) Trajectory {
	if math.Abs(velY) < deadband {
		return TrajectoryKeep
	}
	toCenter := -relY // lane center is y = 0 in the EV frame
	if toCenter*velY > 0 {
		return TrajectoryMovingIn
	}
	return TrajectoryMovingOut
}

// MatcherConfig parametrizes the scenario matcher.
type MatcherConfig struct {
	// VyDeadband separates "keep" from lateral motion.
	VyDeadband float64
	// LaneHalfWidth decides in-lane membership of the target.
	LaneHalfWidth float64
	// PreferDisappearFor chooses between the interchangeable
	// Move_Out/Disappear cells of Table I: the paper found Disappear
	// better suited to pedestrians (small attack window) and Move_Out
	// to vehicles (§IV-A).
	PreferDisappearFor sim.Class
}

// DefaultMatcherConfig returns the paper's choices.
func DefaultMatcherConfig() MatcherConfig {
	return MatcherConfig{
		VyDeadband:         0.35,
		LaneHalfWidth:      1.75,
		PreferDisappearFor: sim.ClassPedestrian,
	}
}

// Matcher is the rule-based scenario matcher (intentionally rule-based
// to minimize execution time and evade detection, §IV-A).
type Matcher struct {
	cfg MatcherConfig
}

// NewMatcher creates a scenario matcher.
func NewMatcher(cfg MatcherConfig) *Matcher { return &Matcher{cfg: cfg} }

// Match implements Table I: given the target object's lateral state and
// class, it returns the attack vector to use, or VectorNone when the
// configuration is not attackable (the "—" cells).
func (m *Matcher) Match(relY, velY float64, width float64, cls sim.Class) Vector {
	inLane := math.Abs(relY) < m.cfg.LaneHalfWidth+width/2
	traj := ClassifyTrajectory(relY, velY, m.cfg.VyDeadband)

	outOrDisappear := VectorMoveOut
	if cls == m.cfg.PreferDisappearFor {
		outOrDisappear = VectorDisappear
	}

	switch {
	case inLane && traj == TrajectoryKeep:
		return outOrDisappear
	case inLane && traj == TrajectoryMovingOut:
		return VectorMoveIn
	case inLane: // moving in while already in lane: "—"
		return VectorNone
	case !inLane && traj == TrajectoryMovingIn:
		return outOrDisappear
	case !inLane && traj == TrajectoryKeep:
		return VectorMoveIn
	default: // out of lane, moving out: "—"
		return VectorNone
	}
}
