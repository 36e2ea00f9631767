package scenario

import (
	"reflect"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// This file preserves the original hand-coded scenario builders
// verbatim (as legacyDS1..legacyDS5) and proves that the declarative
// catalog specs replay them bit for bit: same RNG consumption order,
// same float arithmetic, same actor IDs, same behavior values. Any
// drift in the scenegen compiler or the built-in specs fails here.

func legacyJitter(rng *stats.RNG, base, spread float64) float64 {
	if rng == nil || spread == 0 {
		return base
	}
	return base + rng.Uniform(-spread, spread)
}

func legacyEVWorld(evSpeed float64) *sim.World {
	ev := sim.DefaultEV()
	ev.Speed = evSpeed
	return sim.NewWorld(sim.DefaultRoad(), ev)
}

func legacyDS1(rng *stats.RNG) *Scenario {
	w := legacyEVWorld(legacyJitter(rng, sim.Kph(45), sim.Kph(1.5)))
	tvSpeed := legacyJitter(rng, sim.Kph(25), sim.Kph(1.5))
	gap := legacyJitter(rng, 60, 5)
	tv := &sim.Actor{
		Class:    sim.ClassVehicle,
		Pos:      geom.V(gap, 0),
		Size:     sim.SizeSUV,
		Behavior: &sim.Cruise{Speed: tvSpeed},
	}
	id := w.AddActor(tv)
	return &Scenario{
		Name: "DS-1", World: w,
		TargetID: id, TargetClass: sim.ClassVehicle,
		CruiseSpeed: sim.Kph(45), Duration: 40,
	}
}

func legacyDS2(rng *stats.RNG) *Scenario {
	w := legacyEVWorld(legacyJitter(rng, sim.Kph(45), sim.Kph(1.5)))
	start := legacyJitter(rng, 90, 6)
	trigger := legacyJitter(rng, 47, 4)
	speed := legacyJitter(rng, 1.4, 0.15)
	ped := &sim.Actor{
		Class: sim.ClassPedestrian,
		Pos:   geom.V(start, 6),
		Size:  sim.SizePedestrian,
		Behavior: &sim.TriggeredCross{
			TriggerGap: trigger,
			CrossSpeed: speed,
			ToY:        -6,
		},
	}
	id := w.AddActor(ped)
	return &Scenario{
		Name: "DS-2", World: w,
		TargetID: id, TargetClass: sim.ClassPedestrian,
		CruiseSpeed: sim.Kph(45), Duration: 30,
	}
}

func legacyDS3(rng *stats.RNG) *Scenario {
	w := legacyEVWorld(legacyJitter(rng, sim.Kph(45), sim.Kph(1.5)))
	pos := legacyJitter(rng, 75, 8)
	tv := &sim.Actor{
		Class:    sim.ClassVehicle,
		Pos:      geom.V(pos, 3.5),
		Size:     sim.SizeCar,
		Behavior: sim.Parked{},
	}
	id := w.AddActor(tv)
	return &Scenario{
		Name: "DS-3", World: w,
		TargetID: id, TargetClass: sim.ClassVehicle,
		CruiseSpeed: sim.Kph(45), Duration: 20,
	}
}

func legacyDS4(rng *stats.RNG) *Scenario {
	w := legacyEVWorld(legacyJitter(rng, sim.Kph(45), sim.Kph(1.5)))
	pos := legacyJitter(rng, 80, 8)
	ped := &sim.Actor{
		Class: sim.ClassPedestrian,
		Pos:   geom.V(pos, 3.3),
		Size:  sim.SizePedestrian,
		Behavior: &sim.WalkThenStop{
			Speed:    legacyJitter(rng, 1.2, 0.2),
			Distance: 5,
		},
	}
	id := w.AddActor(ped)
	return &Scenario{
		Name: "DS-4", World: w,
		TargetID: id, TargetClass: sim.ClassPedestrian,
		CruiseSpeed: sim.Kph(45), Duration: 20,
	}
}

func legacyDS5(rng *stats.RNG) *Scenario {
	s := legacyDS1(rng)
	s.Name = "DS-5"
	w := s.World
	n := 3
	if rng != nil {
		n += rng.IntN(3)
	}
	for i := 0; i < n; i++ {
		x := legacyJitter(rng, 120+40*float64(i), 25)
		speed := -legacyJitter(rng, sim.Kph(35), sim.Kph(10))
		w.AddActor(&sim.Actor{
			Class:    sim.ClassVehicle,
			Pos:      geom.V(x, -3.5),
			Size:     sim.SizeCar,
			Behavior: &sim.Cruise{Speed: speed},
		})
	}
	for i := 0; i < 2; i++ {
		w.AddActor(&sim.Actor{
			Class:    sim.ClassVehicle,
			Pos:      geom.V(legacyJitter(rng, 110+45*float64(i), 15), 0),
			Size:     sim.SizeCar,
			Behavior: &sim.SafeCruise{Speed: legacyJitter(rng, sim.Kph(28), sim.Kph(4))},
		})
	}
	w.AddActor(&sim.Actor{
		Class: sim.ClassVehicle,
		Pos:   geom.V(legacyJitter(rng, -45, 8), 0),
		Size:  sim.SizeCar,
		Behavior: &sim.SafeCruise{
			Speed: legacyJitter(rng, sim.Kph(35), sim.Kph(5)),
		},
	})
	return s
}

func TestRegistryBuildsMatchLegacyBuilders(t *testing.T) {
	legacy := map[ID]func(*stats.RNG) *Scenario{
		DS1: legacyDS1,
		DS2: legacyDS2,
		DS3: legacyDS3,
		DS4: legacyDS4,
		DS5: legacyDS5,
	}
	// One arena serves every build, so the comparison also covers
	// recycled actors, behaviors and world.
	ar := NewArena()
	for id := DS1; id <= DS5; id++ {
		build := legacy[id]
		// Seed -1 stands for the nominal nil-RNG build; the positive
		// seeds exercise the jittered paths (including DS-5's random
		// traffic count).
		for seed := int64(-1); seed < 40; seed++ {
			var wantRNG, gotRNG *stats.RNG
			if seed >= 0 {
				wantRNG, gotRNG = stats.NewRNG(seed), stats.NewRNG(seed)
			}
			want := build(wantRNG)
			got, err := id.Instantiate(ar, gotRNG)
			if err != nil {
				t.Fatalf("%v seed %d: %v", id, seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v seed %d: catalog build differs from legacy builder\n got %+v\nwant %+v",
					id, seed, got, want)
			}
			// The RNG streams must also be left in the same state, so
			// downstream consumers of a shared stream stay aligned.
			if wantRNG != nil && wantRNG.Uniform(0, 1) != gotRNG.Uniform(0, 1) {
				t.Fatalf("%v seed %d: builders consumed different amounts of randomness", id, seed)
			}
		}
	}
}
