package scenegen

import (
	"fmt"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// Compiled is a spec instantiated into a ready-to-run world plus the
// metadata the experiment harness needs; the scenario package calls it
// Scenario.
type Compiled struct {
	Name        string
	World       *sim.World
	TargetID    sim.ActorID // the scripted target object (TO)
	TargetClass sim.Class
	CruiseSpeed float64 // EV target speed handed to the planner (m/s)
	Duration    float64 // seconds to simulate
}

// Frames returns the scenario length in camera frames.
func (c *Compiled) Frames() int { return int(c.Duration * sim.CameraHz) }

// Compile instantiates the spec into the arena: it draws every
// jittered parameter from rng (nil: nominal values) in declaration
// order and assembles the world. Equal (spec, seed) pairs compile to
// identical worlds, in a fresh arena or a reused one; the jitter stream
// order is part of the format's contract because the built-in DS specs
// must replay the historical hand-built scenarios bit for bit. The
// returned Compiled (and its world) live in the arena and are valid
// until the next Compile call on it.
func (ar *Arena) Compile(spec *Spec, rng *stats.RNG) (*Compiled, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ev := sim.DefaultEV()
	ev.Speed = spec.EVSpeed.Sample(rng)
	w := ar.begin(spec.Road.road(), ev)
	out := &ar.compiled
	*out = Compiled{
		Name:        spec.Name,
		World:       w,
		CruiseSpeed: spec.CruiseSpeed,
		Duration:    spec.Duration,
	}
	for ai := range spec.Actors {
		as := &spec.Actors[ai]
		n := as.count()
		if as.CountExtra > 0 && rng != nil {
			n += rng.IntN(as.CountExtra)
		}
		for i := 0; i < n; i++ {
			a, err := ar.instantiate(as, i, rng)
			if err != nil {
				return nil, fmt.Errorf("scenegen: %s: actor %d: %w", spec.Name, ai, err)
			}
			id := w.AddActor(a)
			if as.Target {
				out.TargetID = id
				out.TargetClass = a.Class
			}
		}
	}
	return out, nil
}

// instantiate builds the i-th instance of an actor spec, drawing jitter
// in the spec's declared order (position first unless BehaviorFirst).
func (ar *Arena) instantiate(as *ActorSpec, i int, rng *stats.RNG) (*sim.Actor, error) {
	class, err := parseClass(as.Class)
	if err != nil {
		return nil, err
	}
	size, err := parseSize(as.Size)
	if err != nil {
		return nil, err
	}
	var behavior sim.Behavior
	var x, y float64
	samplePos := func() {
		xp := as.X
		xp.Base += as.XStep * float64(i)
		x = xp.Sample(rng)
		y = as.Y.Sample(rng)
	}
	if as.BehaviorFirst {
		behavior, err = ar.buildBehavior(&as.Behavior, rng)
		samplePos()
	} else {
		samplePos()
		behavior, err = ar.buildBehavior(&as.Behavior, rng)
	}
	if err != nil {
		return nil, err
	}
	a := ar.takeActor()
	// Full overwrite: recycled actors carry stale ID/Vel state.
	*a = sim.Actor{
		Class:    class,
		Pos:      geom.V(x, y),
		Size:     size,
		Behavior: behavior,
	}
	return a, nil
}

// buildBehavior maps a behavior spec to its sim implementation. The
// per-kind parameter sampling order is fixed (see the kind constants).
// Behaviors drawn from the arena are fully overwritten, so recycled
// progress state (TriggeredCross.triggered, WalkThenStop.walked, the
// lazily-defaulted SafeCruise gaps) resets to the fresh zero values.
func (ar *Arena) buildBehavior(b *BehaviorSpec, rng *stats.RNG) (sim.Behavior, error) {
	switch b.Kind {
	case BehaviorCruise:
		c := ar.takeCruise()
		*c = sim.Cruise{Speed: b.Speed.Sample(rng)}
		return c, nil
	case BehaviorParked:
		return sim.Parked{}, nil
	case BehaviorSafeCruise:
		s := ar.takeSafeCruise()
		*s = sim.SafeCruise{Speed: b.Speed.Sample(rng)}
		return s, nil
	case BehaviorTriggeredCross:
		t := ar.takeTriggeredCross()
		*t = sim.TriggeredCross{
			TriggerGap: b.TriggerGap.Sample(rng),
			CrossSpeed: b.Speed.Sample(rng),
			ToY:        b.ToY,
		}
		return t, nil
	case BehaviorWalkThenStop:
		w := ar.takeWalkThenStop()
		*w = sim.WalkThenStop{
			Speed:    b.Speed.Sample(rng),
			Distance: b.Distance,
		}
		return w, nil
	default:
		return nil, fmt.Errorf("unknown behavior kind %q", b.Kind)
	}
}

// CheckOverlapFree reports an error when any two actors' footprints, or
// an actor's and the EV's, overlap at t = 0. The generator uses it as a
// final validity guard on sampled worlds; it allocates only the error.
func CheckOverlapFree(w *sim.World) error {
	ev := geom.RectFromCenter(w.EV.Pos, w.EV.Size.Length, w.EV.Size.Width)
	for _, a := range w.Actors {
		if !ev.Intersect(a.Footprint()).Empty() {
			return fmt.Errorf("scenegen: EV overlaps actor %d (%v) at t=0", a.ID, a.Class)
		}
	}
	for i, a := range w.Actors {
		for _, b := range w.Actors[i+1:] {
			if !a.Footprint().Intersect(b.Footprint()).Empty() {
				return fmt.Errorf("scenegen: actor %d (%v) overlaps actor %d (%v) at t=0", a.ID, a.Class, b.ID, b.Class)
			}
		}
	}
	return nil
}
