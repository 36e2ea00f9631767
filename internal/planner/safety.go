// Package planner implements the ADS planning & control module of the
// paper's Fig. 1: the Jha et al. safety model (Definitions 3-5: d_stop,
// d_safe and the safety potential delta), an ACC-style longitudinal
// planner with cruise / follow / brake / emergency-brake modes, and the
// PID smoothing of actuation commands.
package planner

import (
	"math"

	"github.com/robotack/robotack/internal/fusion"
	"github.com/robotack/robotack/internal/sim"
)

// SafetyConfig parametrizes the safety model.
type SafetyConfig struct {
	// ComfortDecel is the "maximum comfortable deceleration" of
	// Definition 3, in m/s^2. Kept a field: the bench holds a
	// SafetyConfig and calls its methods.
	ComfortDecel float64
	// ReactionTime adds a reaction distance v * t to d_stop. Kept a
	// field: the bench holds a SafetyConfig and calls its methods.
	ReactionTime float64
	// MaxDSafe caps d_safe when no obstacle is in the corridor. Kept a
	// field: the bench reads it.
	MaxDSafe float64
	// AccidentDelta is the delta below which a run counts as an
	// accident: 4 m, the LGSVL halt limitation adopted by the paper
	// (§II-C, Definition 5). Kept a field: the bench reads it.
	AccidentDelta float64
}

// DefaultSafetyConfig returns the safety model used throughout.
// ComfortDecel 5 m/s^2 with no reaction allowance calibrates d_stop so
// that DS-1's attack-start safety potential lands at the paper's
// delta_0 ~ 41 m (Fig. 8b): at 45 kph, d_stop = 12.5^2/10 = 15.6 m.
func DefaultSafetyConfig() SafetyConfig {
	return SafetyConfig{
		ComfortDecel:  5.0,
		ReactionTime:  0,
		MaxDSafe:      100,
		AccidentDelta: 4.0,
	}
}

// DStop is Definition 3: the distance travelled before a complete stop
// under the maximum comfortable deceleration, including the reaction
// distance.
func (c SafetyConfig) DStop(speed float64) float64 {
	if speed <= 0 {
		return 0
	}
	return speed*c.ReactionTime + speed*speed/(2*c.ComfortDecel)
}

// Delta is Definition 5: the safety potential delta = d_safe - d_stop.
func (c SafetyConfig) Delta(dsafe, speed float64) float64 {
	return dsafe - c.DStop(speed)
}

// Corridor prediction horizons (seconds): how far ahead lateral motion
// is extrapolated when deciding whether an object is entering the EV
// corridor. Pedestrians get a longer horizon (vulnerable road users are
// anticipated earlier). A Move_In hijack works precisely because this
// prediction exists.
const (
	VehicleCorridorHorizon    = 1.5
	PedestrianCorridorHorizon = 3.0
)

// CorridorHorizonFor returns the prediction horizon for a class.
func CorridorHorizonFor(cls sim.Class) float64 {
	if cls == sim.ClassPedestrian {
		return PedestrianCorridorHorizon
	}
	return VehicleCorridorHorizon
}

// InCorridorNowOrSoon reports whether the object is inside the EV's
// swept corridor, or will enter it within the horizon given its
// lateral velocity.
func InCorridorNowOrSoon(rel, vel float64, width, evWidth, horizon float64, road sim.Road) bool {
	if road.InEVCorridor(rel, width, evWidth) {
		return true
	}
	future := rel + vel*horizon
	return road.InEVCorridor(future, width, evWidth)
}

// Target is the in-path object selected by the safety model.
type Target struct {
	Object fusion.Object
	// Gap is the bumper-to-bumper longitudinal distance in meters.
	Gap float64
	// Closing is the closing speed in m/s (positive when the gap is
	// shrinking).
	Closing float64
}

// GroundTruthDelta computes the safety potential from simulator ground
// truth; the experiment harness uses it to classify accidents exactly
// as the paper does (min delta over the run).
func (c SafetyConfig) GroundTruthDelta(w *sim.World) float64 {
	gap, _, ok := w.GroundTruthGap()
	dsafe := c.MaxDSafe
	if ok {
		dsafe = math.Max(math.Min(gap, c.MaxDSafe), 0)
	}
	return c.Delta(dsafe, w.EV.Speed)
}
