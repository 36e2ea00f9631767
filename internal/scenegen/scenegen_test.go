package scenegen

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

func builtinSpecs() []*Spec {
	return []*Spec{DS1Spec(), DS2Spec(), DS3Spec(), DS4Spec(), DS5Spec()}
}

func TestBuiltinsRegistered(t *testing.T) {
	names := Names()
	for _, want := range []string{"DS-1", "DS-2", "DS-3", "DS-4", "DS-5"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry is missing %s (have %v)", want, names)
		}
		if _, ok := Lookup(want); !ok {
			t.Errorf("Lookup(%q) failed", want)
		}
	}
}

// TestSpecJSONRoundTrip marshals every built-in spec to JSON, parses it
// back and requires a deep-equal spec — the format loses nothing.
func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range builtinSpecs() {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", spec.Name, err)
		}
		back, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", spec.Name, err, data)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Errorf("%s: round-trip drift\n got %+v\nwant %+v", spec.Name, back, spec)
		}
	}
}

func TestParseRejectsUnknownFieldsAndInvalidSpecs(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","typo_field":1}`)); err == nil {
		t.Error("unknown fields must be rejected")
	}
	// One spec per input: anything but whitespace after it is rejected.
	ds1, err := json.Marshal(DS1Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"}", " " + string(ds1)} {
		if _, err := Parse(append(ds1[:len(ds1):len(ds1)], tail...)); err == nil {
			t.Errorf("Parse accepted the DS-1 spec followed by %.20q", tail)
		}
	}
	if _, err := Parse(append(ds1, " \n"...)); err != nil {
		t.Errorf("Parse rejected trailing whitespace: %v", err)
	}
	// Structurally valid JSON, semantically invalid spec (no target).
	spec := DS1Spec()
	spec.Actors[0].Target = false
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(data); err == nil || !strings.Contains(err.Error(), "target") {
		t.Errorf("target-less spec parse error = %v, want target complaint", err)
	}
}

func TestValidateTargetRules(t *testing.T) {
	spec := DS1Spec()
	spec.Actors[0].Count = 3
	if err := spec.Validate(); err == nil {
		t.Error("a group target must be rejected")
	}
	spec = DS1Spec()
	spec.Actors = append(spec.Actors, spec.Actors[0])
	if err := spec.Validate(); err == nil {
		t.Error("two targets must be rejected")
	}
}

func TestCompileBuiltins(t *testing.T) {
	for _, spec := range builtinSpecs() {
		for _, rng := range []*stats.RNG{nil, stats.NewRNG(3)} {
			c, err := NewArena().Compile(spec, rng)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			if c.World.Actor(c.TargetID) == nil {
				t.Errorf("%s: target %d not in world", spec.Name, c.TargetID)
			}
			if c.Duration <= 0 || c.CruiseSpeed <= 0 {
				t.Errorf("%s: bad metadata %+v", spec.Name, c)
			}
		}
	}
}

func TestParamSample(t *testing.T) {
	rng := stats.NewRNG(1)
	if got := P(5).Sample(rng); got != 5 {
		t.Errorf("jitter-free sample = %v, want 5", got)
	}
	if got := (Param{Base: 5, Negate: true}).Sample(nil); got != -5 {
		t.Errorf("negated nominal sample = %v, want -5", got)
	}
	for i := 0; i < 100; i++ {
		v := PJ(10, 2).Sample(rng)
		if v < 8 || v > 12 {
			t.Fatalf("sample %v outside [8, 12]", v)
		}
	}
	// Zero-jitter params must not consume randomness: the identically
	// seeded stream stays aligned after sampling one.
	a, b := stats.NewRNG(7), stats.NewRNG(7)
	P(3).Sample(a)
	if a.Uniform(0, 1) != b.Uniform(0, 1) {
		t.Error("zero-jitter Sample consumed randomness")
	}
}

// TestGeneratorDeterminism: one seed, one scenario — byte-identical
// specs, and different seeds explore the space.
func TestGeneratorDeterminism(t *testing.T) {
	gen := NewGenerator(DefaultSpace())
	ar := NewArena()
	for seed := int64(0); seed < 30; seed++ {
		a, err := gen.Generate(ar, stats.NewRNG(seed), "g")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := gen.Generate(NewArena(), stats.NewRNG(seed), "g")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: same seed produced different specs\n%+v\n%+v", seed, a, b)
		}
	}
	a, _ := gen.Generate(ar, stats.NewRNG(1), "g")
	b, _ := gen.Generate(ar, stats.NewRNG(2), "g")
	if reflect.DeepEqual(a, b) {
		t.Error("distinct seeds produced identical specs")
	}
}

// TestGeneratorValidity: across many seeds, every generated spec
// validates, compiles, has a reachable target ahead of the EV and no
// initial footprint overlaps.
func TestGeneratorValidity(t *testing.T) {
	gen := NewGenerator(DefaultSpace())
	ar := NewArena()
	kinds := map[string]int{}
	for seed := int64(0); seed < 200; seed++ {
		spec, err := gen.Generate(ar, stats.NewRNG(seed), fmt.Sprintf("gen-%d", seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c, err := ar.Compile(spec, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		target := c.World.Actor(c.TargetID)
		if target == nil {
			t.Fatalf("seed %d: target missing from world", seed)
		}
		if target.Pos.X <= c.World.EV.Pos.X {
			t.Errorf("seed %d: target at x=%.1f is not ahead of the EV", seed, target.Pos.X)
		}
		if err := CheckOverlapFree(c.World); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		kinds[spec.Actors[0].Behavior.Kind]++
	}
	if len(kinds) < 3 {
		t.Errorf("target behavior mix too narrow: %v", kinds)
	}
}

// TestGeneratedSweepDensityVaries checks the density axis actually
// spreads: the generator must produce both sparse and busy worlds.
func TestGeneratedSweepDensityVaries(t *testing.T) {
	gen := NewGenerator(DefaultSpace())
	ar := NewArena()
	minN, maxN := 1<<30, 0
	for seed := int64(0); seed < 100; seed++ {
		spec, err := gen.Generate(ar, stats.NewRNG(seed), "g")
		if err != nil {
			t.Fatal(err)
		}
		n := len(spec.Actors)
		minN, maxN = min(minN, n), max(maxN, n)
	}
	if minN > 1 || maxN < 4 {
		t.Errorf("actor counts span [%d, %d]; want a wider density spread", minN, maxN)
	}
}

func TestCheckOverlapFree(t *testing.T) {
	ev := sim.DefaultEV()
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: sim.DefaultEV().Pos, Size: sim.SizeCar})
	if err := CheckOverlapFree(w); err == nil || err.Error() != "scenegen: EV overlaps actor 1 (vehicle) at t=0" {
		t.Errorf("actor on top of the EV: %v", err)
	}
	w = sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(40, 0), Size: sim.SizeCar})
	w.AddActor(&sim.Actor{Class: sim.ClassPedestrian, Pos: geom.V(60, 3.5), Size: sim.SizePedestrian})
	if err := CheckOverlapFree(w); err != nil {
		t.Errorf("separate actors: %v", err)
	}
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(61, 3.5), Size: sim.SizeCar})
	if err := CheckOverlapFree(w); err == nil || err.Error() != "scenegen: actor 2 (pedestrian) overlaps actor 3 (vehicle) at t=0" {
		t.Errorf("overlapping actors: %v", err)
	}
}

// TestSpecBounds: a spec may expand to at most MaxActors actors (every
// group at its largest count) and run at most MaxDuration seconds, and
// Parse enforces the same caps on JSON.
func TestSpecBounds(t *testing.T) {
	group := func(count, extra int) func(*Spec) {
		return func(s *Spec) {
			s.Actors = append(s.Actors, ActorSpec{
				Class: ClassVehicle, Size: SizeCar, X: P(-40),
				Behavior: BehaviorSpec{Kind: BehaviorParked},
				Count:    count, CountExtra: extra,
			})
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"64 actors", group(63, 0), true},
		{"65 actors", group(64, 0), false},
		{"count_extra up to 64", group(1, 63), true},
		{"count_extra up to 65", group(1, 64), false},
		{"count 1e9", group(1_000_000_000, 0), false},
		{"count_extra 1e9", group(1, 1_000_000_000), false},
		{"counts that overflow a sum", group(math.MaxInt, math.MaxInt), false},
		{"65 single actors", func(s *Spec) {
			for range 64 {
				group(1, 0)(s)
			}
		}, false},
		{"duration 600 s", func(s *Spec) { s.Duration = MaxDuration }, true},
		{"duration 600.5 s", func(s *Spec) { s.Duration = 600.5 }, false},
		{"duration 1e9 s", func(s *Spec) { s.Duration = 1e9 }, false},
		{"duration NaN", func(s *Spec) { s.Duration = math.NaN() }, false},
	} {
		spec := DS1Spec()
		tc.edit(spec)
		err := spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if math.IsNaN(spec.Duration) {
			continue // JSON cannot carry NaN
		}
		data, merr := json.Marshal(spec)
		if merr != nil {
			t.Fatal(merr)
		}
		if _, err := Parse(data); (err == nil) != tc.ok {
			t.Errorf("%s: Parse = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// The built-ins sit far inside the caps.
	for _, spec := range builtinSpecs() {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// TestSpaceBounds: a generator space may add at most MaxActors-1
// background actors to its target and draw durations of at most
// MaxDuration seconds.
func TestSpaceBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   Space
		ok   bool
	}{
		{"default", Space{}, true},
		{"max_extras 63", Space{MaxExtras: 63}, true},
		{"max_extras 64", Space{MaxExtras: 64}, false},
		{"max_extras 1e9", Space{MaxExtras: 1_000_000_000}, false},
		{"min and max_extras 1e9", Space{MinExtras: 1_000_000_000, MaxExtras: 1_000_000_000}, false},
		{"duration up to 600 s", Space{Duration: Range{20, 600}}, true},
		{"duration up to 601 s", Space{Duration: Range{20, 601}}, false},
		{"duration up to 1e9 s", Space{Duration: Range{1, 1e9}}, false},
	} {
		err := tc.sp.WithDefaults().Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// The largest allowed space still generates specs within the caps.
	gen := NewGenerator(Space{MaxExtras: MaxActors - 1, Duration: Range{MaxDuration, MaxDuration}})
	ar := NewArena()
	for seed := int64(0); seed < 20; seed++ {
		spec, err := gen.Generate(ar, stats.NewRNG(seed), "g")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(spec.Actors) > MaxActors || spec.Duration > MaxDuration {
			t.Fatalf("seed %d: %d actors, %g s", seed, len(spec.Actors), spec.Duration)
		}
	}
}

// dirtyArena returns an arena whose pools hold every behavior kind with
// stepped progress state (triggered crossings, walked distances,
// defaulted safe-cruise gaps, non-zero velocities), so whatever compiles
// into it next must overwrite everything it recycles.
func dirtyArena(t *testing.T) *Arena {
	t.Helper()
	ar := NewArena()
	for _, spec := range builtinSpecs() {
		c, err := ar.Compile(spec, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150 && !c.World.Halted; i++ {
			c.World.Step(0)
		}
	}
	return ar
}

// sameBits reports whether a and b hold equal values, comparing floats
// by bit pattern so that NaN matches NaN and -0 does not match 0.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		if a.Elem().Type() != b.Elem().Type() {
			return false
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		panic("sameBits: unhandled kind " + a.Kind().String())
	}
}

// FuzzSpecParse feeds arbitrary bytes to Parse. Whatever it accepts
// must be one valid JSON value, must stay within MaxActors and
// MaxDuration, and must compile to
// bit-identical worlds, drawing the same randomness, in a fresh arena
// and in a reused one, both nominally and with jitter. Floats compare
// by bit pattern, because extreme jitters can produce NaN. The seed
// corpus in testdata/fuzz/FuzzSpecParse holds the five built-in specs,
// the README's bus-stop spec and one generated spec.
func FuzzSpecParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("Parse accepted invalid JSON %q", data)
		}
		reused := dirtyArena(t)
		for _, seed := range []int64{-1, 1} {
			var freshRNG, reusedRNG *stats.RNG
			if seed >= 0 {
				freshRNG, reusedRNG = stats.NewRNG(seed), stats.NewRNG(seed)
			}
			want, werr := NewArena().Compile(spec, freshRNG)
			got, gerr := reused.Compile(spec, reusedRNG)
			if werr != nil || gerr != nil {
				t.Fatalf("seed %d: accepted spec fails to compile: fresh %v, reused %v", seed, werr, gerr)
			}
			if n := len(want.World.Actors); n > MaxActors || want.Duration > MaxDuration {
				t.Fatalf("seed %d: accepted spec compiles to %d actors over %g s", seed, n, want.Duration)
			}
			if !sameBits(reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()) {
				t.Fatalf("seed %d: reused arena's world differs from a fresh arena's\n got %+v\nwant %+v", seed, got, want)
			}
			if freshRNG != nil && math.Float64bits(freshRNG.Uniform(0, 1)) != math.Float64bits(reusedRNG.Uniform(0, 1)) {
				t.Fatalf("seed %d: fresh and reused arenas drew different amounts of randomness", seed)
			}
		}
	})
}
