// Package scenegen makes driving scenarios data instead of code: a
// declarative Spec describes a road, the EV, a duration and a list of
// actor specs (behavior kind + parameters, each numeric field carrying
// an optional jitter half-width), and compiles into a ready-to-run
// simulator world, a Compiled. Specs round-trip through JSON, and can
// be sampled procedurally from a parameterized Space for
// scenario-diversity campaigns far beyond the paper's five hand-built
// worlds. The paper's DS-1..DS-5 form the built-in catalog, a fixed
// table that Lookup and Names read; nothing registers more.
package scenegen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// Param is a scalar scenario parameter with an optional uniform jitter.
// Sampling draws base + U(-jitter, +jitter), exactly like the historical
// hand-built scenario builders, so catalog specs replay those builders
// bit for bit.
type Param struct {
	Base   float64 `json:"base"`
	Jitter float64 `json:"jitter,omitempty"`
	// Negate flips the sign of the jittered value. DS-5's oncoming
	// traffic historically sampled -(base + U(-j, j)), which is not
	// bitwise the same stream as sampling around -base.
	Negate bool `json:"negate,omitempty"`
}

// P is shorthand for a jitter-free Param.
func P(base float64) Param { return Param{Base: base} }

// PJ is shorthand for a jittered Param.
func PJ(base, jitter float64) Param { return Param{Base: base, Jitter: jitter} }

// Sample draws the parameter's value. A nil rng (or zero jitter) yields
// the nominal base without consuming randomness — the same contract as
// the historical builders' jitter helper, which the bit-identity of
// catalog-built DS scenarios depends on.
func (p Param) Sample(rng *stats.RNG) float64 {
	v := p.Base
	if rng != nil && p.Jitter != 0 {
		v += rng.Uniform(-p.Jitter, p.Jitter)
	}
	if p.Negate {
		v = -v
	}
	return v
}

// Behavior kinds understood by the compiler. Each maps to one sim
// Behavior implementation; the comment gives the jitter-sampling order,
// which is fixed so that equal seeds always yield equal worlds.
const (
	BehaviorCruise         = "cruise"          // speed
	BehaviorParked         = "parked"          // (no parameters)
	BehaviorSafeCruise     = "safe-cruise"     // speed
	BehaviorTriggeredCross = "triggered-cross" // trigger_gap, speed
	BehaviorWalkThenStop   = "walk-then-stop"  // speed
)

// BehaviorSpec selects and parameterizes one actor behavior. Unused
// fields for a kind are ignored.
type BehaviorSpec struct {
	Kind string `json:"kind"`
	// Speed is the cruise/walk/cross speed in m/s.
	Speed Param `json:"speed,omitzero"`
	// TriggerGap is the EV gap (m) that starts a triggered-cross.
	TriggerGap Param `json:"trigger_gap,omitzero"`
	// ToY is the lateral destination (m) of a triggered-cross.
	ToY float64 `json:"to_y,omitempty"`
	// Distance is how far (m) a walk-then-stop actor walks.
	Distance float64 `json:"distance,omitempty"`
}

// Actor classes and sizes, by name (the JSON surface of sim.Class and
// the standard sim footprints).
const (
	ClassVehicle    = "vehicle"
	ClassPedestrian = "pedestrian"

	SizeCar        = "car"
	SizeSUV        = "suv"
	SizeBus        = "bus"
	SizePedestrian = "pedestrian"
)

// ActorSpec declares one actor, or a group of actors when Count > 1 or
// CountExtra > 0.
type ActorSpec struct {
	Class string `json:"class"`
	Size  string `json:"size"`
	X     Param  `json:"x"`
	Y     Param  `json:"y,omitzero"`

	Behavior BehaviorSpec `json:"behavior"`

	// BehaviorFirst draws the behavior's jitter before the position's.
	// The hand-built DS-1 sampled the target vehicle's speed before its
	// gap; this flag preserves that stream order so catalog builds stay
	// bit-identical.
	BehaviorFirst bool `json:"behavior_first,omitempty"`

	// Target marks this actor as the scripted target object (TO) the
	// malware attacks. Exactly one actor per spec must be the target,
	// and it cannot be a group.
	Target bool `json:"target,omitempty"`

	// Count instantiates the spec several times (0 means 1). CountExtra
	// adds a uniform 0..CountExtra-1 more when building with jitter, and
	// XStep shifts each instance's X base by XStep per index — together
	// they express DS-5-style random background traffic.
	Count      int     `json:"count,omitempty"`
	CountExtra int     `json:"count_extra,omitempty"`
	XStep      float64 `json:"x_step,omitempty"`
}

// count returns the group's base instance count.
func (a *ActorSpec) count() int {
	if a.Count <= 0 {
		return 1
	}
	return a.Count
}

// RoadSpec overrides the default road. Zero fields fall back to the
// corresponding sim.DefaultRoad value.
type RoadSpec struct {
	LaneWidth  float64   `json:"lane_width,omitempty"`
	Offsets    []float64 `json:"offsets,omitempty"`
	SpeedLimit float64   `json:"speed_limit,omitempty"`
}

func (r *RoadSpec) road() sim.Road {
	road := sim.DefaultRoad()
	if r == nil {
		return road
	}
	if r.LaneWidth != 0 {
		road.LaneWidth = r.LaneWidth
	}
	if len(r.Offsets) != 0 {
		road.Offsets = append([]float64(nil), r.Offsets...)
	}
	if r.SpeedLimit != 0 {
		road.SpeedLimit = r.SpeedLimit
	}
	return road
}

// Spec is a complete declarative scenario: it compiles into a
// scenario-shaped world and round-trips through JSON. All quantities
// are SI (meters, m/s, seconds).
type Spec struct {
	Name string `json:"name"`
	// Road is the optional road override (nil: Borregas-style default).
	Road *RoadSpec `json:"road,omitempty"`
	// EVSpeed is the EV's initial speed.
	EVSpeed Param `json:"ev_speed"`
	// CruiseSpeed is the planner's target speed.
	CruiseSpeed float64 `json:"cruise_speed"`
	// Duration is the episode length in seconds.
	Duration float64 `json:"duration"`
	// Actors is compiled in order; jitter is drawn in declaration order.
	Actors []ActorSpec `json:"actors"`
}

func parseClass(s string) (sim.Class, error) {
	switch s {
	case ClassVehicle:
		return sim.ClassVehicle, nil
	case ClassPedestrian:
		return sim.ClassPedestrian, nil
	default:
		return 0, fmt.Errorf("scenegen: unknown actor class %q", s)
	}
}

func parseSize(s string) (sim.Size, error) {
	switch s {
	case SizeCar:
		return sim.SizeCar, nil
	case SizeSUV:
		return sim.SizeSUV, nil
	case SizeBus:
		return sim.SizeBus, nil
	case SizePedestrian:
		return sim.SizePedestrian, nil
	default:
		return sim.Size{}, fmt.Errorf("scenegen: unknown actor size %q", s)
	}
}

func validateBehavior(b *BehaviorSpec) error {
	switch b.Kind {
	case BehaviorCruise, BehaviorParked, BehaviorSafeCruise,
		BehaviorTriggeredCross, BehaviorWalkThenStop:
		return nil
	case "":
		return fmt.Errorf("scenegen: actor has no behavior kind")
	default:
		return fmt.Errorf("scenegen: unknown behavior kind %q", b.Kind)
	}
}

// Size bounds on what one spec or generator space may ask for. Every
// built-in, generated and example spec stays far below them; they stop
// a single served request from making each of its episodes allocate an
// unbounded world or run for an unbounded number of frames.
const (
	// MaxActors caps the actors a spec expands to, every group at its
	// largest count.
	MaxActors = 64
	// MaxDuration caps an episode's length in seconds: the paper's
	// 10-minute drive.
	MaxDuration = 600
)

// Validate checks the spec's structural invariants: non-empty name,
// positive duration of at most MaxDuration, positive cruise speed,
// known classes/sizes/behaviors, non-negative jitters, at most
// MaxActors actors and exactly one non-group target actor.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenegen: spec has no name")
	}
	if !(s.Duration > 0 && s.Duration <= MaxDuration) {
		return fmt.Errorf("scenegen: %s: duration %v must be in (0, %d] s", s.Name, s.Duration, MaxDuration)
	}
	if s.CruiseSpeed <= 0 {
		return fmt.Errorf("scenegen: %s: cruise speed %v must be positive", s.Name, s.CruiseSpeed)
	}
	if len(s.Actors) == 0 {
		return fmt.Errorf("scenegen: %s: no actors", s.Name)
	}
	targets, actors := 0, 0
	for i := range s.Actors {
		a := &s.Actors[i]
		if _, err := parseClass(a.Class); err != nil {
			return fmt.Errorf("%w (actor %d of %s)", err, i, s.Name)
		}
		if _, err := parseSize(a.Size); err != nil {
			return fmt.Errorf("%w (actor %d of %s)", err, i, s.Name)
		}
		if err := validateBehavior(&a.Behavior); err != nil {
			return fmt.Errorf("%w (actor %d of %s)", err, i, s.Name)
		}
		if a.Count < 0 || a.CountExtra < 0 {
			return fmt.Errorf("scenegen: %s: actor %d has negative count", s.Name, i)
		}
		if a.Count > MaxActors || a.CountExtra > MaxActors {
			return fmt.Errorf("scenegen: %s: actor %d expands to more than %d actors", s.Name, i, MaxActors)
		}
		actors += a.count() + max(a.CountExtra-1, 0)
		for _, p := range []Param{a.X, a.Y, a.Behavior.Speed, a.Behavior.TriggerGap} {
			if p.Jitter < 0 {
				return fmt.Errorf("scenegen: %s: actor %d has negative jitter", s.Name, i)
			}
		}
		if a.Target {
			targets++
			if a.count() > 1 || a.CountExtra > 0 {
				return fmt.Errorf("scenegen: %s: target actor %d cannot be a group", s.Name, i)
			}
		}
	}
	if s.EVSpeed.Jitter < 0 {
		return fmt.Errorf("scenegen: %s: EV speed has negative jitter", s.Name)
	}
	if targets != 1 {
		return fmt.Errorf("scenegen: %s: want exactly 1 target actor, have %d", s.Name, targets)
	}
	if actors > MaxActors {
		return fmt.Errorf("scenegen: %s: expands to up to %d actors, more than %d", s.Name, actors, MaxActors)
	}
	return nil
}

// Parse decodes and validates a JSON spec. Unknown fields, and
// anything but whitespace after the one JSON value, are rejected so
// typos in hand-written spec files surface as errors.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenegen: parse spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, errors.New("scenegen: parse spec: trailing data after the JSON value")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and validates a JSON spec file.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenegen: %w", err)
	}
	return Parse(data)
}
