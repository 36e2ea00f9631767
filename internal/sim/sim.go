// Package sim is the driving-scenario simulator that stands in for the
// LGSVL/Unity environment the paper evaluates on (see DESIGN.md §2 for
// the substitution argument). It models a straight multi-lane road in a
// metric 2-D frame (x longitudinal, y lateral), kinematic actors
// (vehicles and pedestrians) driven by pluggable behaviors, and the Ego
// vehicle (EV) whose acceleration is commanded by the ADS under test.
//
// The simulation advances in fixed steps of 1/15 s — one step per camera
// frame, matching the paper's 15 Hz camera. Like LGSVL (paper §II-C),
// the simulator halts when the EV comes within 4 m of another actor;
// the experiment harness classifies such runs as accidents.
package sim

import (
	"fmt"
	"slices"

	"github.com/robotack/robotack/internal/geom"
)

// CameraHz is the sensor frame rate used throughout the reproduction.
const CameraHz = 15.0

// DT is the duration of one simulation step in seconds.
const DT = 1.0 / CameraHz

// HaltGap is the minimum EV-to-obstacle gap (meters) below which the
// simulator halts, mirroring the LGSVL limitation that motivates the
// paper's delta >= 4 m safe-state definition.
const HaltGap = 4.0

// Kph converts km/h to m/s.
func Kph(v float64) float64 { return v / 3.6 }

// Class identifies the kind of road user.
type Class int

// Actor classes. Starting at 1 so the zero value is invalid.
const (
	ClassVehicle Class = iota + 1
	ClassPedestrian
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassVehicle:
		return "vehicle"
	case ClassPedestrian:
		return "pedestrian"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// ActorID uniquely identifies an actor within a world.
type ActorID int

// Size is an actor's physical extent in meters. Length is along x,
// Width along y.
type Size struct {
	Length float64 `json:"length"`
	Width  float64 `json:"width"`
	Height float64 `json:"height"`
}

// Standard actor footprints.
var (
	SizeCar        = Size{Length: 4.6, Width: 1.9, Height: 1.5}
	SizeSUV        = Size{Length: 5.0, Width: 2.0, Height: 1.8}
	SizeBus        = Size{Length: 10.5, Width: 2.5, Height: 3.2}
	SizePedestrian = Size{Length: 0.5, Width: 0.6, Height: 1.75}
)

// Actor is a non-EV road user.
type Actor struct {
	ID       ActorID
	Class    Class
	Pos      geom.Vec2 // center of footprint
	Vel      geom.Vec2
	Size     Size
	Behavior Behavior
}

// Footprint returns the actor's ground rectangle.
func (a *Actor) Footprint() geom.Rect {
	return geom.RectFromCenter(a.Pos, a.Size.Length, a.Size.Width)
}

// Behavior drives one actor each step. Implementations mutate only the
// actor they are given.
type Behavior interface {
	Step(a *Actor, w *World, dt float64)
}

// Road describes the straight test road: a set of parallel lanes at
// fixed lateral offsets. Lane 0 is the EV lane centered at y = 0.
type Road struct {
	LaneWidth float64
	// Offsets holds the lane-center lateral offsets: EV lane, opposite
	// lane (negative y), parking lane (positive y), ...
	Offsets []float64
	// SpeedLimit in m/s (Borregas Ave: 50 kph).
	SpeedLimit float64
}

// DefaultRoad models the paper's Borregas Avenue setup: EV lane,
// one opposite lane and a parking lane, 50 kph limit.
func DefaultRoad() Road {
	return Road{
		LaneWidth:  3.5,
		Offsets:    []float64{0, -3.5, 3.5},
		SpeedLimit: Kph(50),
	}
}

// EVLaneCenter returns the lateral center of the EV lane.
func (r Road) EVLaneCenter() float64 { return r.Offsets[0] }

// InEVCorridor reports whether an object with the given lateral center
// and width overlaps the corridor swept by an EV of width evWidth
// driving down the EV lane.
func (r Road) InEVCorridor(y, width, evWidth float64) bool {
	half := (evWidth + width) / 2
	return y-r.EVLaneCenter() < half && r.EVLaneCenter()-y < half
}

// EV is the Ego vehicle. Its longitudinal dynamics integrate the
// acceleration command produced by the ADS; lateral position is held on
// the lane center (all five paper scenarios are lane-keeping).
type EV struct {
	Pos   geom.Vec2
	Speed float64 // longitudinal, m/s, >= 0
	Accel float64 // last applied acceleration, m/s^2
	Size  Size

	// Actuation limits.
	MaxAccel float64
	MaxBrake float64 // positive magnitude
}

// DefaultEV returns an EV with mid-size-car geometry and typical
// actuation limits.
func DefaultEV() EV {
	return EV{
		Size:     SizeCar,
		MaxAccel: 3.0,
		MaxBrake: 8.0,
	}
}

// Front returns the x coordinate of the EV's front bumper.
func (e *EV) Front() float64 { return e.Pos.X + e.Size.Length/2 }

// World is the complete simulation state.
type World struct {
	Road   Road
	EV     EV
	Actors []*Actor

	Frame  int
	Halted bool
	// HaltActor is the actor that triggered the halt, if any.
	HaltActor ActorID

	nextID ActorID
}

// NewWorld creates an empty world on the given road with the given EV.
func NewWorld(road Road, ev EV) *World {
	return &World{Road: road, EV: ev, nextID: 1}
}

// Reset rewinds the world to the empty state NewWorld(road, ev) would
// produce, retaining the actor slice's backing array so pooled episode
// state (scenegen.Arena) can rebuild worlds without allocating. Actor
// pointers previously held by the world are the arena's to recycle.
func (w *World) Reset(road Road, ev EV) {
	w.Road = road
	w.EV = ev
	w.Actors = w.Actors[:0]
	w.Frame = 0
	w.Halted = false
	w.HaltActor = 0
	w.nextID = 1
}

// AddActor inserts an actor and assigns it a unique ID, returning the ID.
func (w *World) AddActor(a *Actor) ActorID {
	a.ID = w.nextID
	w.nextID++
	w.Actors = append(w.Actors, a)
	return a.ID
}

// Actor returns the actor with the given ID, or nil.
func (w *World) Actor(id ActorID) *Actor {
	for _, a := range w.Actors {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// Time returns the elapsed simulation time in seconds.
func (w *World) Time() float64 { return float64(w.Frame) * DT }

// Step advances the world by one frame: applies the commanded EV
// acceleration (clamped to actuation limits), integrates all actors, and
// updates the halt state. It is a no-op once the world has halted.
func (w *World) Step(evAccel float64) {
	if w.Halted {
		return
	}
	// EV longitudinal dynamics.
	a := geom.Clamp(evAccel, -w.EV.MaxBrake, w.EV.MaxAccel)
	w.EV.Accel = a
	w.EV.Speed += a * DT
	if w.EV.Speed < 0 {
		w.EV.Speed = 0
	}
	w.EV.Pos.X += w.EV.Speed * DT

	for _, actor := range w.Actors {
		if actor.Behavior != nil {
			actor.Behavior.Step(actor, w, DT)
		}
		actor.Pos = actor.Pos.Add(actor.Vel.Scale(DT))
	}
	w.Frame++

	if gap, id, ok := w.GroundTruthGap(); ok && gap < HaltGap {
		w.Halted = true
		w.HaltActor = id
	}
}

// GroundTruthGap returns the bumper-to-bumper longitudinal gap to the
// nearest actor ahead of the EV whose footprint overlaps the EV's
// corridor, using ground-truth state. ok is false when no such actor
// exists within 250 m.
func (w *World) GroundTruthGap() (gap float64, id ActorID, ok bool) {
	const horizon = 250.0
	best := horizon
	var bestID ActorID
	found := false
	for _, a := range w.Actors {
		if !w.Road.InEVCorridor(a.Pos.Y, a.Size.Width, w.EV.Size.Width) {
			continue
		}
		rear := a.Pos.X - a.Size.Length/2
		g := rear - w.EV.Front()
		if g < -a.Size.Length { // fully behind the EV
			continue
		}
		if g < best {
			best, bestID, found = g, a.ID, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return best, bestID, true
}

// RelState is an actor's state relative to the EV, the quantity the
// perception stack is trying to estimate and the attack is trying to
// corrupt.
type RelState struct {
	ID     ActorID
	Class  Class
	Pos    geom.Vec2 // relative to EV center (x ahead, y right)
	Vel    geom.Vec2 // relative velocity
	Size   Size
	InLane bool
}

// RelativeInto writes the relative states of all actors into dst,
// resliced to their number (grown only if too short), and returns it —
// the allocation-free variant for per-frame callers (camera, LiDAR)
// that own a reusable buffer. Every field of every entry is written in
// place, so nothing of dst's old contents survives.
func (w *World) RelativeInto(dst []RelState) []RelState {
	dst = slices.Grow(dst[:0], len(w.Actors))[:len(w.Actors)]
	evVel := geom.V(w.EV.Speed, 0)
	for i, a := range w.Actors {
		r := &dst[i]
		r.ID = a.ID
		r.Class = a.Class
		r.Pos = a.Pos.Sub(w.EV.Pos)
		r.Vel = a.Vel.Sub(evVel)
		r.Size = a.Size
		r.InLane = w.Road.InEVCorridor(a.Pos.Y, a.Size.Width, w.EV.Size.Width)
	}
	return dst
}
