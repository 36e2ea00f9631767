package core

import (
	"math"
	"strings"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
)

// nanOracle forecasts NaN for every query — a degenerate trained model.
type nanOracle struct{}

func (nanOracle) PredictDelta(State, int) float64 { return math.NaN() }

// farOracle forecasts a safety potential that never drops below any
// threshold: the attack is never worth launching.
type farOracle struct{}

func (farOracle) PredictDelta(State, int) float64 { return 1e6 }

// cliffOracle drops below gamma immediately: Eq. 2's binary search
// lands on k=1, exercising the KMin clamp.
type cliffOracle struct{}

func (cliffOracle) PredictDelta(s State, k int) float64 { return -100 }

func edgeState() State {
	return State{Delta: 20, EVSpeed: 10}
}

// TestDecideMissingOracle: a vector the hijacker has no oracle for is
// an error, not a silent no-attack — it means the build wired the
// vectors wrong.
func TestDecideMissingOracle(t *testing.T) {
	sh := &SafetyHijacker{
		oracles: map[Vector]Oracle{}, // deliberately empty: bypass the constructor's analytic fallback
	}
	_, err := sh.Decide(DefaultSafetyHijackerConfig(), edgeState(), VectorDisappear, sim.ClassVehicle)
	if err == nil {
		t.Fatal("Decide with no oracle for the vector returned no error")
	}
	if !strings.Contains(err.Error(), "no oracle for vector") {
		t.Errorf("error %q does not name the missing oracle", err)
	}
}

// TestDecideNaNForecast: a NaN forecast must refuse to attack. NaN
// compares false with any threshold, so the plain pred > gamma guard
// would fall through to the binary search and launch a full-kMax
// attack on a garbage prediction; the trigger holds fire explicitly.
func TestDecideNaNForecast(t *testing.T) {
	sh := NewSafetyHijacker(map[Vector]Oracle{VectorDisappear: nanOracle{}})
	dec, err := sh.Decide(DefaultSafetyHijackerConfig(), edgeState(), VectorDisappear, sim.ClassVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Attack {
		t.Errorf("NaN forecast launched an attack (K=%d)", dec.K)
	}
	// Whatever the decision, the predicted delta must surface as NaN
	// (the record layer sanitizes it; the core must not invent a
	// number).
	if !math.IsNaN(dec.PredictedDelta) {
		t.Errorf("PredictedDelta = %v, want NaN propagated", dec.PredictedDelta)
	}
}

// TestDecideNoAttackBeyondKMax: when even the stealth-bounded maximum
// duration cannot push the potential below gamma, the trigger holds
// fire and reports the forecast it based that on.
func TestDecideNoAttackBeyondKMax(t *testing.T) {
	sh := NewSafetyHijacker(map[Vector]Oracle{VectorMoveOut: farOracle{}})
	dec, err := sh.Decide(DefaultSafetyHijackerConfig(), edgeState(), VectorMoveOut, sim.ClassVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Attack {
		t.Error("attack launched although the forecast never crosses gamma")
	}
	if dec.PredictedDelta != 1e6 {
		t.Errorf("PredictedDelta = %v, want the kMax forecast recorded", dec.PredictedDelta)
	}
}

// TestDecideKMinClamp: an immediately-effective attack still runs for
// KMin frames — shorter injections are not worth the exposure.
func TestDecideKMinClamp(t *testing.T) {
	cfg := DefaultSafetyHijackerConfig()
	sh := NewSafetyHijacker(map[Vector]Oracle{VectorDisappear: cliffOracle{}})
	dec, err := sh.Decide(cfg, edgeState(), VectorDisappear, sim.ClassPedestrian)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Attack {
		t.Fatal("cliff forecast did not trigger an attack")
	}
	if dec.K != cfg.KMin {
		t.Errorf("K = %d, want the KMin clamp %d", dec.K, cfg.KMin)
	}
}

// TestDecideWithOverridesThresholds: Decide with another config
// consults the same oracles under that config's thresholds, as a
// searched trigger does.
func TestDecideWithOverridesThresholds(t *testing.T) {
	sh := NewSafetyHijacker(nil)
	s := State{Delta: 20, VRel: geom.Vec2{X: -8}, EVSpeed: 12}

	base, err := sh.Decide(DefaultSafetyHijackerConfig(), s, VectorDisappear, sim.ClassVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if !base.Attack || base.K <= 1 {
		t.Fatalf("default config decided %+v; the state must launch an attack longer than 1 frame", base)
	}

	// A stricter (lower) gamma needs more frames; a tiny KMax refuses.
	strict := DefaultSafetyHijackerConfig()
	strict.Gamma = 2
	sdec, err := sh.Decide(strict, s, VectorDisappear, sim.ClassVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if !sdec.Attack || sdec.K <= base.K {
		t.Errorf("stricter gamma decided %+v, not a longer attack than the default's K=%d", sdec, base.K)
	}

	tiny := DefaultSafetyHijackerConfig()
	tiny.KMaxVehicle = 1
	tiny.KMin = 1
	tdec, err := sh.Decide(tiny, s, VectorDisappear, sim.ClassVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if tdec.Attack {
		t.Errorf("KMax=1 config attacked (%+v) although the default needed K=%d", tdec, base.K)
	}
}
