package sim

import (
	"math"

	"github.com/robotack/robotack/internal/geom"
)

// Cruise drives the actor at a constant longitudinal speed. Negative
// speeds model oncoming traffic in the opposite lane.
type Cruise struct {
	Speed float64
}

var _ Behavior = (*Cruise)(nil)

// Step implements Behavior.
func (c *Cruise) Step(a *Actor, _ *World, _ float64) {
	a.Vel = geom.V(c.Speed, 0)
}

// Parked keeps the actor stationary (DS-3's parked target vehicle).
type Parked struct{}

var _ Behavior = (*Parked)(nil)

// Step implements Behavior.
func (Parked) Step(a *Actor, _ *World, _ float64) {
	a.Vel = geom.Vec2{}
}

// Waypoint is one leg of a FollowRoute.
type Waypoint struct {
	Pos   geom.Vec2
	Speed float64
}

// FollowRoute walks the actor through a series of waypoints at the
// per-leg speed, then stops. It models the LGSVL Python-API waypoint
// actors used to script the paper's scenarios.
type FollowRoute struct {
	Waypoints []Waypoint
	next      int
}

var _ Behavior = (*FollowRoute)(nil)

// Step implements Behavior.
func (f *FollowRoute) Step(a *Actor, _ *World, dt float64) {
	for f.next < len(f.Waypoints) {
		wp := f.Waypoints[f.next]
		to := wp.Pos.Sub(a.Pos)
		dist := to.Norm()
		if dist < math.Max(wp.Speed*dt, 1e-6) {
			a.Pos = wp.Pos
			f.next++
			continue
		}
		a.Vel = to.Unit().Scale(wp.Speed)
		return
	}
	a.Vel = geom.Vec2{}
}

// TriggeredCross models DS-2's jaywalking pedestrian: the actor stands
// still until the EV's longitudinal gap to it falls below TriggerGap,
// then crosses laterally from its current y to ToY at CrossSpeed and
// stops.
type TriggeredCross struct {
	TriggerGap float64
	CrossSpeed float64
	ToY        float64
	triggered  bool
}

var _ Behavior = (*TriggeredCross)(nil)

// Step implements Behavior.
func (t *TriggeredCross) Step(a *Actor, w *World, dt float64) {
	if !t.triggered {
		gap := a.Pos.X - w.EV.Front()
		if gap <= t.TriggerGap {
			t.triggered = true
		} else {
			a.Vel = geom.Vec2{}
			return
		}
	}
	dy := t.ToY - a.Pos.Y
	if math.Abs(dy) < math.Max(t.CrossSpeed*dt, 1e-6) {
		a.Pos.Y = t.ToY
		a.Vel = geom.Vec2{}
		return
	}
	a.Vel = geom.V(0, geom.Sign(dy)*t.CrossSpeed)
}

// WalkThenStop models DS-4's pedestrian: walk longitudinally toward the
// EV (negative x) for Distance meters, then stand still for the rest of
// the scenario.
type WalkThenStop struct {
	Speed    float64
	Distance float64
	walked   float64
}

var _ Behavior = (*WalkThenStop)(nil)

// Step implements Behavior.
func (ws *WalkThenStop) Step(a *Actor, _ *World, dt float64) {
	if ws.walked >= ws.Distance {
		a.Vel = geom.Vec2{}
		return
	}
	a.Vel = geom.V(-ws.Speed, 0)
	ws.walked += ws.Speed * dt
}
