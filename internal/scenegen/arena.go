package scenegen

import "github.com/robotack/robotack/internal/sim"

// Arena is a reusable allocation pool for compiled worlds. A worker
// that runs episodes back to back compiles every scenario into the same
// arena: the world, its actors and their behavior states are recycled
// instead of reallocated, which removes the dominant per-episode
// allocation cost of scenario instantiation.
//
// Recycled objects are fully overwritten at reuse time — every field of
// an actor (including Vel and ID) and of each behavior struct
// (including private progress state like TriggeredCross.triggered) is
// reassigned — so a world compiled into a reused arena is bit-identical
// to one compiled into a fresh arena from the same (spec, rng). An
// arena serves one worker at a time; it is not safe for concurrent use.
type Arena struct {
	compiled Compiled
	world    *sim.World

	actors []*sim.Actor
	cruise []*sim.Cruise
	safe   []*sim.SafeCruise
	cross  []*sim.TriggeredCross
	walk   []*sim.WalkThenStop

	nActor, nCruise, nSafe, nCross, nWalk int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// begin resets the pool cursors and produces the world for a new
// compilation.
func (ar *Arena) begin(road sim.Road, ev sim.EV) *sim.World {
	ar.nActor, ar.nCruise, ar.nSafe, ar.nCross, ar.nWalk = 0, 0, 0, 0, 0
	if ar.world == nil {
		ar.world = sim.NewWorld(road, ev)
	} else {
		ar.world.Reset(road, ev)
	}
	return ar.world
}

// takeActor returns a recycled (or new) actor. The caller overwrites
// every field.
func (ar *Arena) takeActor() *sim.Actor {
	if ar.nActor == len(ar.actors) {
		ar.actors = append(ar.actors, new(sim.Actor))
	}
	a := ar.actors[ar.nActor]
	ar.nActor++
	return a
}

func (ar *Arena) takeCruise() *sim.Cruise {
	if ar.nCruise == len(ar.cruise) {
		ar.cruise = append(ar.cruise, new(sim.Cruise))
	}
	c := ar.cruise[ar.nCruise]
	ar.nCruise++
	return c
}

func (ar *Arena) takeSafeCruise() *sim.SafeCruise {
	if ar.nSafe == len(ar.safe) {
		ar.safe = append(ar.safe, new(sim.SafeCruise))
	}
	s := ar.safe[ar.nSafe]
	ar.nSafe++
	return s
}

func (ar *Arena) takeTriggeredCross() *sim.TriggeredCross {
	if ar.nCross == len(ar.cross) {
		ar.cross = append(ar.cross, new(sim.TriggeredCross))
	}
	t := ar.cross[ar.nCross]
	ar.nCross++
	return t
}

func (ar *Arena) takeWalkThenStop() *sim.WalkThenStop {
	if ar.nWalk == len(ar.walk) {
		ar.walk = append(ar.walk, new(sim.WalkThenStop))
	}
	w := ar.walk[ar.nWalk]
	ar.nWalk++
	return w
}
