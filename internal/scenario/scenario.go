// Package scenario exposes the driving scenarios the experiments run
// on: the paper's §V-C (Fig. 4) set — DS-1 (vehicle following), DS-2
// (jaywalking pedestrian), DS-3 (parked vehicle), DS-4 (pedestrian
// walking toward the EV in the parking lane), DS-5 (mixed traffic, the
// random-attack baseline scenario) — plus anything expressed as a
// scenegen spec: named registry entries, JSON spec files and
// procedurally generated worlds all build into the same Scenario type
// through the Source interface.
//
// All built-in scenarios run on a 50 kph road with the EV cruising at
// 45 kph, as in the paper. Every Source instantiates into a reusable
// Arena and takes an optional jitter RNG; the experiment harness uses
// it to vary initial conditions across runs the way distinct LGSVL
// episodes would.
package scenario

import (
	"fmt"

	"github.com/robotack/robotack/internal/sim"
)

// ID enumerates the paper's driving scenarios.
type ID int

// Driving scenarios DS-1 through DS-5, each compiled from its built-in
// scenegen registry spec (scenegen.DS1Spec..DS5Spec).
const (
	// DS1 is the vehicle-following scenario: a target vehicle cruises
	// at 25 kph, 60 m ahead of the EV, in the EV lane. Golden
	// behaviour: the EV closes the gap and settles ~20 m behind the TV.
	// Used for the Disappear and Move_Out attacks on a vehicle.
	DS1 ID = iota + 1
	// DS2 is the jaywalking-pedestrian scenario: a pedestrian waits at
	// the roadside and crosses the street when the EV comes within the
	// trigger gap. Golden behaviour: the EV brakes and stops more than
	// 10 m away. Used for the Disappear and Move_Out attacks on a
	// pedestrian.
	DS2
	// DS3 is the parked-vehicle scenario: a target vehicle is parked in
	// the parking lane. Golden behaviour: the EV keeps its lane and
	// speed. Used for the Move_In attack on a vehicle.
	DS3
	// DS4 is the walking-pedestrian scenario: a pedestrian walks
	// longitudinally toward the EV in the parking lane for 5 m, then
	// stands still. Golden behaviour: the EV slows to ~35 kph while the
	// pedestrian moves, then resumes. Used for the Move_In attack on a
	// pedestrian.
	DS4
	// DS5 is the mixed-traffic baseline scenario: the EV follows a
	// target vehicle exactly as in DS-1, with additional NPC vehicles
	// at random speeds and positions in the opposite lane and behind
	// the EV. The random-attack baseline (Table II row
	// DS-5-Baseline-Random) runs on this scenario.
	DS5
)

// dsNames are the canonical scenario names, indexed by id - DS1.
var dsNames = [...]string{"DS-1", "DS-2", "DS-3", "DS-4", "DS-5"}

// String implements fmt.Stringer.
func (id ID) String() string {
	if id < DS1 || id > DS5 {
		return fmt.Sprintf("DS-?(%d)", int(id))
	}
	return dsNames[id-DS1]
}

// idFromName recovers the paper ID from a canonical scenario name, or
// zero. Allocation-free, unlike scanning All() with String().
func idFromName(name string) ID {
	for i, n := range dsNames {
		if n == name {
			return DS1 + ID(i)
		}
	}
	return 0
}

// Scenario is a ready-to-run simulation plus the metadata the
// experiment harness needs.
type Scenario struct {
	// ID is the paper scenario this world came from, or zero for
	// spec-file and generated scenarios.
	ID          ID
	Name        string
	World       *sim.World
	TargetID    sim.ActorID // the scripted target object (TO)
	TargetClass sim.Class
	CruiseSpeed float64 // EV target speed handed to the planner (m/s)
	Duration    float64 // seconds to simulate
}

// Frames returns the scenario length in camera frames.
func (s *Scenario) Frames() int { return int(s.Duration * sim.CameraHz) }
