// Package scenario exposes the driving scenarios the experiments run
// on: the paper's §V-C (Fig. 4) set — DS-1 (vehicle following), DS-2
// (jaywalking pedestrian), DS-3 (parked vehicle), DS-4 (pedestrian
// walking toward the EV in the parking lane), DS-5 (mixed traffic, the
// random-attack baseline scenario) — plus anything expressed as a
// scenegen spec: names in the built-in catalog, JSON spec files and
// procedurally generated worlds all compile into the one world type,
// Scenario (scenegen.Compiled), through the Source interface. Named is
// the one check of a scenario name.
//
// All built-in scenarios run on a 50 kph road with the EV cruising at
// 45 kph, as in the paper. Every Source instantiates into a reusable
// Arena and takes an optional jitter RNG; the experiment harness uses
// it to vary initial conditions across runs the way distinct LGSVL
// episodes would.
package scenario

import (
	"fmt"

	"github.com/robotack/robotack/internal/scenegen"
)

// ID enumerates the paper's driving scenarios.
type ID int

// Driving scenarios DS-1 through DS-5, each compiled from its spec in
// the built-in scenegen catalog (scenegen.DS1Spec..DS5Spec).
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

// Scenario is a ready-to-run simulation plus the metadata the
// experiment harness needs: a compiled scenegen spec. Its Name carries
// the paper scenario ("DS-1".."DS-5") for catalog worlds.
type Scenario = scenegen.Compiled
