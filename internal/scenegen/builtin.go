package scenegen

import "github.com/robotack/robotack/internal/sim"

// DS1Spec is the vehicle-following scenario: a target vehicle cruises
// at 25 kph, 60 m ahead of the EV, in the EV lane.
func DS1Spec() *Spec {
	return &Spec{
		Name:        "DS-1",
		EVSpeed:     PJ(sim.Kph(45), sim.Kph(1.5)),
		CruiseSpeed: sim.Kph(45),
		Duration:    40,
		Actors:      []ActorSpec{ds1Target()},
	}
}

// ds1Target is DS-1's lead vehicle, shared with DS-5. The historical
// builder sampled its speed before its gap, hence BehaviorFirst.
func ds1Target() ActorSpec {
	return ActorSpec{
		Class: ClassVehicle, Size: SizeSUV,
		X: PJ(60, 5),
		Behavior: BehaviorSpec{
			Kind:  BehaviorCruise,
			Speed: PJ(sim.Kph(25), sim.Kph(1.5)),
		},
		BehaviorFirst: true,
		Target:        true,
	}
}

// DS2Spec is the jaywalking-pedestrian scenario: a pedestrian waits at
// the roadside and crosses the street when the EV comes within the
// trigger gap.
func DS2Spec() *Spec {
	return &Spec{
		Name:        "DS-2",
		EVSpeed:     PJ(sim.Kph(45), sim.Kph(1.5)),
		CruiseSpeed: sim.Kph(45),
		Duration:    30,
		Actors: []ActorSpec{{
			Class: ClassPedestrian, Size: SizePedestrian,
			X: PJ(90, 6),
			Y: P(6),
			Behavior: BehaviorSpec{
				Kind:       BehaviorTriggeredCross,
				TriggerGap: PJ(47, 4),
				Speed:      PJ(1.4, 0.15),
				ToY:        -6,
			},
			Target: true,
		}},
	}
}

// DS3Spec is the parked-vehicle scenario: a target vehicle is parked in
// the parking lane.
func DS3Spec() *Spec {
	return &Spec{
		Name:        "DS-3",
		EVSpeed:     PJ(sim.Kph(45), sim.Kph(1.5)),
		CruiseSpeed: sim.Kph(45),
		Duration:    20,
		Actors: []ActorSpec{{
			Class: ClassVehicle, Size: SizeCar,
			X:        PJ(75, 8),
			Y:        P(3.5),
			Behavior: BehaviorSpec{Kind: BehaviorParked},
			Target:   true,
		}},
	}
}

// DS4Spec is the walking-pedestrian scenario: a pedestrian walks
// longitudinally toward the EV in the parking lane for 5 m, then stands
// still.
func DS4Spec() *Spec {
	return &Spec{
		Name:        "DS-4",
		EVSpeed:     PJ(sim.Kph(45), sim.Kph(1.5)),
		CruiseSpeed: sim.Kph(45),
		Duration:    20,
		Actors: []ActorSpec{{
			Class: ClassPedestrian, Size: SizePedestrian,
			X: PJ(80, 8),
			Y: P(3.3),
			Behavior: BehaviorSpec{
				Kind:     BehaviorWalkThenStop,
				Speed:    PJ(1.2, 0.2),
				Distance: 5,
			},
			Target: true,
		}},
	}
}

// DS5Spec is the mixed-traffic baseline scenario: DS-1's car-following
// pair plus 3-5 oncoming NPCs, two safe-cruising NPCs far ahead in the
// EV lane and one trailing NPC that yields to the EV.
func DS5Spec() *Spec {
	return &Spec{
		Name:        "DS-5",
		EVSpeed:     PJ(sim.Kph(45), sim.Kph(1.5)),
		CruiseSpeed: sim.Kph(45),
		Duration:    40,
		Actors: []ActorSpec{
			ds1Target(),
			{
				Class: ClassVehicle, Size: SizeCar,
				Count: 3, CountExtra: 3,
				X: PJ(120, 25), XStep: 40,
				Y: P(-3.5),
				Behavior: BehaviorSpec{
					Kind:  BehaviorCruise,
					Speed: Param{Base: sim.Kph(35), Jitter: sim.Kph(10), Negate: true},
				},
			},
			{
				Class: ClassVehicle, Size: SizeCar,
				Count: 2,
				X:     PJ(110, 15), XStep: 45,
				Behavior: BehaviorSpec{
					Kind:  BehaviorSafeCruise,
					Speed: PJ(sim.Kph(28), sim.Kph(4)),
				},
			},
			{
				Class: ClassVehicle, Size: SizeCar,
				X: PJ(-45, 8),
				Behavior: BehaviorSpec{
					Kind:  BehaviorSafeCruise,
					Speed: PJ(sim.Kph(35), sim.Kph(5)),
				},
			},
		},
	}
}
