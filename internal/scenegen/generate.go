package scenegen

import (
	"fmt"

	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// Range is a closed interval sampled uniformly.
type Range struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

func (r Range) sample(rng *stats.RNG) float64 {
	if r.Max <= r.Min {
		return r.Min
	}
	return rng.Uniform(r.Min, r.Max)
}

// Target kinds the generator can place. Every kind puts the target
// object ahead of the EV, in or adjacent to its corridor, so the
// malware's scenario matcher always has something reachable to attack.
const (
	TargetLeadVehicle   = "lead-vehicle"       // DS-1-like: cruising ahead in the EV lane
	TargetJaywalker     = "jaywalker"          // DS-2-like: crosses when the EV nears
	TargetParkedVehicle = "parked-vehicle"     // DS-3-like: parked in the parking lane
	TargetWalkingPed    = "walking-pedestrian" // DS-4-like: walks toward the EV, then stops
)

// Space parameterizes the scenario distribution the generator samples
// from: EV speed and episode length, the target-kind mix, the
// background-traffic density and class/speed/gap ranges, and the role
// mix of that traffic (oncoming cruisers, safe-cruisers ahead, parked
// cars, a trailing follower).
type Space struct {
	EVSpeed  Range `json:"ev_speed"`
	Duration Range `json:"duration"`

	// TargetKinds is the set of target templates drawn from uniformly.
	TargetKinds []string `json:"target_kinds"`

	// MinExtras/MaxExtras bound the background-traffic count (the
	// sweep's density axis).
	MinExtras int `json:"min_extras"`
	MaxExtras int `json:"max_extras"`

	// VehicleSpeed and PedSpeed are magnitude ranges for background
	// vehicles and generated pedestrians.
	VehicleSpeed Range `json:"vehicle_speed"`
	PedSpeed     Range `json:"ped_speed"`

	// MinGap is the minimum initial bumper-to-bumper spacing between
	// same-lane actors (and the EV).
	MinGap float64 `json:"min_gap"`

	// Role weights for background traffic (need not sum to 1).
	OncomingWeight float64 `json:"oncoming_weight"`
	AheadWeight    float64 `json:"ahead_weight"`
	ParkedWeight   float64 `json:"parked_weight"`
	TrailingWeight float64 `json:"trailing_weight"`
}

// DefaultSpace is a broad distribution around the paper's operating
// point: 35-55 kph EV, up to six background actors, all four target
// kinds.
func DefaultSpace() Space {
	return Space{
		EVSpeed:        Range{sim.Kph(35), sim.Kph(55)},
		Duration:       Range{20, 40},
		TargetKinds:    []string{TargetLeadVehicle, TargetJaywalker, TargetParkedVehicle, TargetWalkingPed},
		MinExtras:      0,
		MaxExtras:      6,
		VehicleSpeed:   Range{sim.Kph(20), sim.Kph(45)},
		PedSpeed:       Range{0.8, 2.0},
		MinGap:         12,
		OncomingWeight: 0.40,
		AheadWeight:    0.25,
		ParkedWeight:   0.25,
		TrailingWeight: 0.10,
	}
}

// KnownTargetKind reports whether the generator understands the given
// target-kind name — the POST-time validity gate for queued generator
// requests.
func KnownTargetKind(kind string) bool {
	switch kind {
	case TargetLeadVehicle, TargetJaywalker, TargetParkedVehicle, TargetWalkingPed:
		return true
	}
	return false
}

// WithDefaults overlays DefaultSpace onto zero-valued fields, so a
// partial space (e.g. decoded from a request that only names what it
// changes) never yields degenerate scenarios.
func (sp Space) WithDefaults() Space {
	def := DefaultSpace()
	var zero Range
	if sp.EVSpeed == zero {
		sp.EVSpeed = def.EVSpeed
	}
	if sp.Duration == zero {
		sp.Duration = def.Duration
	}
	if len(sp.TargetKinds) == 0 {
		sp.TargetKinds = def.TargetKinds
	}
	if sp.MinExtras == 0 && sp.MaxExtras == 0 {
		sp.MinExtras, sp.MaxExtras = def.MinExtras, def.MaxExtras
	}
	if sp.VehicleSpeed == zero {
		sp.VehicleSpeed = def.VehicleSpeed
	}
	if sp.PedSpeed == zero {
		sp.PedSpeed = def.PedSpeed
	}
	if sp.MinGap <= 0 {
		sp.MinGap = def.MinGap
	}
	if sp.OncomingWeight+sp.AheadWeight+sp.ParkedWeight+sp.TrailingWeight <= 0 {
		sp.OncomingWeight = def.OncomingWeight
		sp.AheadWeight = def.AheadWeight
		sp.ParkedWeight = def.ParkedWeight
		sp.TrailingWeight = def.TrailingWeight
	}
	return sp
}

// Validate rejects spaces whose episodes could never generate —
// inverted ranges, non-positive speeds or durations, negative counts
// or weights, unknown target kinds — and spaces that could exceed the
// spec bounds: a duration above MaxDuration, or more than MaxActors-1
// background actors beside the target. Apply WithDefaults first:
// zero-valued fields mean "use the default", not errors.
func (sp Space) Validate() error {
	for _, c := range []struct {
		name     string
		r        Range
		positive bool
	}{
		{"ev_speed", sp.EVSpeed, true},
		{"duration", sp.Duration, true},
		{"vehicle_speed", sp.VehicleSpeed, false},
		{"ped_speed", sp.PedSpeed, true},
	} {
		if c.r.Max < c.r.Min {
			return fmt.Errorf("scenegen: %s: max %g < min %g", c.name, c.r.Max, c.r.Min)
		}
		if c.r.Min < 0 || (c.positive && c.r.Min <= 0) {
			return fmt.Errorf("scenegen: %s must be positive, got min %g", c.name, c.r.Min)
		}
	}
	for _, kind := range sp.TargetKinds {
		if !KnownTargetKind(kind) {
			return fmt.Errorf("scenegen: unknown target kind %q", kind)
		}
	}
	if sp.MinExtras < 0 {
		return fmt.Errorf("scenegen: min_extras must be non-negative, got %d", sp.MinExtras)
	}
	if sp.MaxExtras < sp.MinExtras {
		return fmt.Errorf("scenegen: max_extras %d < min_extras %d", sp.MaxExtras, sp.MinExtras)
	}
	if sp.MaxExtras > MaxActors-1 {
		return fmt.Errorf("scenegen: max_extras %d exceeds %d", sp.MaxExtras, MaxActors-1)
	}
	if sp.Duration.Max > MaxDuration {
		return fmt.Errorf("scenegen: duration: max %g exceeds %d s", sp.Duration.Max, MaxDuration)
	}
	for _, w := range []struct {
		name string
		v    float64
	}{
		{"oncoming_weight", sp.OncomingWeight},
		{"ahead_weight", sp.AheadWeight},
		{"parked_weight", sp.ParkedWeight},
		{"trailing_weight", sp.TrailingWeight},
	} {
		if w.v < 0 {
			return fmt.Errorf("scenegen: %s must be non-negative, got %g", w.name, w.v)
		}
	}
	return nil
}

// Generator samples valid, fully-concrete (jitter-free) specs from a
// Space. It is stateless: all randomness comes from the rng passed to
// Generate, so one seed maps to exactly one scenario.
type Generator struct {
	Space Space
}

// NewGenerator returns a generator over the given space; zero-valued
// fields fall back to DefaultSpace.
func NewGenerator(space Space) *Generator {
	return &Generator{Space: space.WithDefaults()}
}

// lanes, by lateral bucket, for overlap bookkeeping.
type lane int

const (
	laneEV lane = iota
	laneOncoming
	laneParking
)

// occupancy tracks per-lane occupied x-intervals so placements never
// overlap initially.
type occupancy struct {
	gap       float64
	intervals [3][][2]float64
}

// free reports whether [lo, hi] (plus the minimum gap) is unoccupied.
func (o *occupancy) free(l lane, lo, hi float64) bool {
	for _, iv := range o.intervals[l] {
		if lo-o.gap < iv[1] && iv[0] < hi+o.gap {
			return false
		}
	}
	return true
}

func (o *occupancy) claim(l lane, lo, hi float64) {
	o.intervals[l] = append(o.intervals[l], [2]float64{lo, hi})
}

// place samples an x center in xr whose footprint of the given length
// fits in the lane, claiming it on success. It retries a few times and
// reports failure rather than forcing an overlap.
func (o *occupancy) place(rng *stats.RNG, l lane, xr Range, length float64) (float64, bool) {
	for try := 0; try < 12; try++ {
		x := xr.sample(rng)
		lo, hi := x-length/2, x+length/2
		if o.free(l, lo, hi) {
			o.claim(l, lo, hi)
			return x, true
		}
	}
	return 0, false
}

// Generate samples one concrete scenario spec named name. The result
// always validates, contains exactly one reachable target ahead of the
// EV, and compiles to a world with no initial footprint overlaps; the
// same rng seed always yields the same spec. The overlap check compiles
// the spec into ar, so ar's previous world is overwritten.
func (g *Generator) Generate(ar *Arena, rng *stats.RNG, name string) (*Spec, error) {
	sp := g.Space
	occ := &occupancy{gap: sp.MinGap}
	// The EV sits at the origin of the EV lane.
	occ.claim(laneEV, -sim.SizeCar.Length/2, sim.SizeCar.Length/2)

	evSpeed := sp.EVSpeed.sample(rng)
	spec := &Spec{
		Name:        name,
		EVSpeed:     P(evSpeed),
		CruiseSpeed: evSpeed,
		Duration:    sp.Duration.sample(rng),
	}

	kind := sp.TargetKinds[rng.IntN(len(sp.TargetKinds))]
	target, targetX, err := g.makeTarget(rng, occ, kind, evSpeed)
	if err != nil {
		return nil, fmt.Errorf("scenegen: generate %s: %w", name, err)
	}
	spec.Actors = append(spec.Actors, target)

	extras := sp.MinExtras
	if sp.MaxExtras > sp.MinExtras {
		extras += rng.IntN(sp.MaxExtras - sp.MinExtras + 1)
	}
	total := sp.OncomingWeight + sp.AheadWeight + sp.ParkedWeight + sp.TrailingWeight
	for i := 0; i < extras; i++ {
		if total <= 0 {
			break
		}
		roll := rng.Uniform(0, total)
		var a ActorSpec
		var ok bool
		switch {
		case roll < sp.OncomingWeight:
			a, ok = g.oncoming(rng, occ)
		case roll < sp.OncomingWeight+sp.AheadWeight:
			a, ok = g.aheadCruiser(rng, occ, targetX)
		case roll < sp.OncomingWeight+sp.AheadWeight+sp.ParkedWeight:
			a, ok = g.parkedCar(rng, occ)
		default:
			a, ok = g.trailer(rng, occ)
		}
		// A full lane is not an error: the sampled density simply
		// saturates and the scenario comes out sparser than drawn.
		if ok {
			spec.Actors = append(spec.Actors, a)
		}
	}

	c, err := ar.Compile(spec, nil)
	if err != nil {
		return nil, fmt.Errorf("scenegen: generate %s: %w", name, err)
	}
	if err := CheckOverlapFree(c.World); err != nil {
		return nil, fmt.Errorf("scenegen: generate %s: %w", name, err)
	}
	return spec, nil
}

// makeTarget places the scripted target object and returns its spec and
// x position (used to keep EV-lane traffic beyond it).
func (g *Generator) makeTarget(rng *stats.RNG, occ *occupancy, kind string, evSpeed float64) (ActorSpec, float64, error) {
	sp := g.Space
	switch kind {
	case TargetLeadVehicle:
		size := SizeCar
		if rng.Bernoulli(0.4) {
			size = SizeSUV
		}
		length := sim.SizeCar.Length
		if size == SizeSUV {
			length = sim.SizeSUV.Length
		}
		x, ok := occ.place(rng, laneEV, Range{45, 90}, length)
		if !ok {
			return ActorSpec{}, 0, fmt.Errorf("no room for lead vehicle")
		}
		// Slower than the EV so the scripted conflict (closing gap)
		// always develops.
		speed := min(sp.VehicleSpeed.sample(rng), 0.8*evSpeed)
		return ActorSpec{
			Class: ClassVehicle, Size: size,
			X:        P(x),
			Behavior: BehaviorSpec{Kind: BehaviorCruise, Speed: P(speed)},
			Target:   true,
		}, x, nil
	case TargetJaywalker:
		x := rng.Uniform(70, 110)
		return ActorSpec{
			Class: ClassPedestrian, Size: SizePedestrian,
			X: P(x), Y: P(6),
			Behavior: BehaviorSpec{
				Kind:       BehaviorTriggeredCross,
				TriggerGap: P(rng.Uniform(35, 55)),
				Speed:      P(sp.PedSpeed.sample(rng)),
				ToY:        -6,
			},
			Target: true,
		}, x, nil
	case TargetParkedVehicle:
		x, ok := occ.place(rng, laneParking, Range{50, 100}, sim.SizeCar.Length)
		if !ok {
			return ActorSpec{}, 0, fmt.Errorf("no room for parked target")
		}
		return ActorSpec{
			Class: ClassVehicle, Size: SizeCar,
			X: P(x), Y: P(3.5),
			Behavior: BehaviorSpec{Kind: BehaviorParked},
			Target:   true,
		}, x, nil
	case TargetWalkingPed:
		x, ok := occ.place(rng, laneParking, Range{60, 100}, sim.SizePedestrian.Length)
		if !ok {
			return ActorSpec{}, 0, fmt.Errorf("no room for walking pedestrian")
		}
		return ActorSpec{
			Class: ClassPedestrian, Size: SizePedestrian,
			X: P(x), Y: P(3.3),
			Behavior: BehaviorSpec{
				Kind:     BehaviorWalkThenStop,
				Speed:    P(sp.PedSpeed.sample(rng)),
				Distance: rng.Uniform(3, 8),
			},
			Target: true,
		}, x, nil
	default:
		return ActorSpec{}, 0, fmt.Errorf("unknown target kind %q", kind)
	}
}

func (g *Generator) oncoming(rng *stats.RNG, occ *occupancy) (ActorSpec, bool) {
	x, ok := occ.place(rng, laneOncoming, Range{60, 280}, sim.SizeCar.Length)
	if !ok {
		return ActorSpec{}, false
	}
	return ActorSpec{
		Class: ClassVehicle, Size: SizeCar,
		X: P(x), Y: P(-3.5),
		Behavior: BehaviorSpec{
			Kind:  BehaviorCruise,
			Speed: Param{Base: g.Space.VehicleSpeed.sample(rng), Negate: true},
		},
	}, true
}

// aheadCruiser places a safe-cruising vehicle in the EV lane well beyond
// the target so the scripted conflict stays the nearest obstacle.
func (g *Generator) aheadCruiser(rng *stats.RNG, occ *occupancy, targetX float64) (ActorSpec, bool) {
	lo := max(targetX+30, 70)
	x, ok := occ.place(rng, laneEV, Range{lo, lo + 160}, sim.SizeCar.Length)
	if !ok {
		return ActorSpec{}, false
	}
	return ActorSpec{
		Class: ClassVehicle, Size: SizeCar,
		X:        P(x),
		Behavior: BehaviorSpec{Kind: BehaviorSafeCruise, Speed: P(g.Space.VehicleSpeed.sample(rng))},
	}, true
}

func (g *Generator) parkedCar(rng *stats.RNG, occ *occupancy) (ActorSpec, bool) {
	x, ok := occ.place(rng, laneParking, Range{25, 220}, sim.SizeCar.Length)
	if !ok {
		return ActorSpec{}, false
	}
	return ActorSpec{
		Class: ClassVehicle, Size: SizeCar,
		X: P(x), Y: P(3.5),
		Behavior: BehaviorSpec{Kind: BehaviorParked},
	}, true
}

func (g *Generator) trailer(rng *stats.RNG, occ *occupancy) (ActorSpec, bool) {
	x, ok := occ.place(rng, laneEV, Range{-90, -25}, sim.SizeCar.Length)
	if !ok {
		return ActorSpec{}, false
	}
	return ActorSpec{
		Class: ClassVehicle, Size: SizeCar,
		X:        P(x),
		Behavior: BehaviorSpec{Kind: BehaviorSafeCruise, Speed: P(g.Space.VehicleSpeed.sample(rng))},
	}, true
}
