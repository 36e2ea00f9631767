package sim

import (
	"math"

	"github.com/robotack/robotack/internal/geom"
)

// SafeCruise drives the actor at a set speed but brakes to avoid the
// entity ahead in its lane (including the EV). DS-5's NPC traffic uses
// it so that background vehicles do not blindly rear-end a braking EV.
type SafeCruise struct {
	Speed      float64
	Headway    float64 // desired time gap, s
	Standstill float64 // desired gap at rest, m
	MaxAccel   float64 // acceleration/deceleration limit magnitude
}

var _ Behavior = (*SafeCruise)(nil)

// Step implements Behavior.
func (s *SafeCruise) Step(a *Actor, w *World, dt float64) {
	if s.Headway == 0 {
		s.Headway = 1.8
	}
	if s.Standstill == 0 {
		s.Standstill = 5
	}
	if s.MaxAccel == 0 {
		s.MaxAccel = 3.5
	}
	gap, leadSpeed := s.leadGap(a, w)

	target := s.Speed
	if gap < 1e8 {
		// Speed that lets the actor stop within the available gap under
		// its braking limit, on top of the lead's speed.
		room := geom.Max(gap-s.Standstill, 0)
		target = geom.Min(target, leadSpeed+math.Sqrt(2*s.MaxAccel*room*0.5))
		if gap < s.Standstill {
			target = 0
		}
	}
	v := a.Vel.X
	dv := geom.Clamp(target-v, -s.MaxAccel*dt, s.MaxAccel*dt)
	a.Vel = geom.V(v+dv, 0)
}

// leadGap finds the bumper gap and speed of the nearest entity ahead of
// the actor in its lane.
func (s *SafeCruise) leadGap(a *Actor, w *World) (gap, leadSpeed float64) {
	const laneHalf = 1.8
	gap = math.Inf(1)
	front := a.Pos.X + a.Size.Length/2
	// The EV.
	if math.Abs(w.EV.Pos.Y-a.Pos.Y) < laneHalf {
		if g := (w.EV.Pos.X - w.EV.Size.Length/2) - front; g > -a.Size.Length && g < gap {
			gap, leadSpeed = g, w.EV.Speed
		}
	}
	for _, other := range w.Actors {
		if other == a || math.Abs(other.Pos.Y-a.Pos.Y) >= laneHalf {
			continue
		}
		if g := (other.Pos.X - other.Size.Length/2) - front; g > -a.Size.Length && g < gap {
			gap, leadSpeed = g, other.Vel.X
		}
	}
	return gap, leadSpeed
}
