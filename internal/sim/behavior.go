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
