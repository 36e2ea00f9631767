package core

import (
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/sim"
)

// State is the kinematic input to the safety hijacker's oracle f_alpha:
// the current safety potential delta_t, the target's relative velocity
// and acceleration (paper Eq. 1). EVSpeed is carried for the analytic
// oracle; the neural oracle uses only the paper's inputs.
type State struct {
	Delta   float64
	VRel    geom.Vec2
	ARel    geom.Vec2
	EVSpeed float64
}

// Encode produces the neural-network input vector [delta, vrel, arel, T]
// where T = k frames expressed in seconds.
func (s State) Encode(k int) []float64 {
	return s.EncodeInto(make([]float64, 0, EncodeDim), k)
}

// EncodeInto appends the oracle input vector into dst (re-sliced to
// zero first) and returns it — the allocation-free variant for the
// per-frame prediction path.
func (s State) EncodeInto(dst []float64, k int) []float64 {
	return append(dst[:0], s.Delta, s.VRel.X, s.VRel.Y, s.ARel.X, s.ARel.Y, float64(k)*sim.DT)
}

// EncodeDim is the oracle input dimensionality.
const EncodeDim = 6

// Oracle predicts the safety potential delta_{t+k} if the attack vector
// it models is sustained for k frames starting from state s (the
// function f_alpha of paper Eq. 1).
type Oracle interface {
	PredictDelta(s State, k int) float64
}

// AnalyticOracle is a closed-form constant-kinematics approximation of
// f_alpha. It serves as the dependency-free default and as the
// comparison point for the learned oracle's error study (Fig. 8).
type AnalyticOracle struct {
	Vector Vector
	// BlindAccel is the assumed mean EV acceleration while the attack
	// blinds the planner to the target (Move_Out/Disappear).
	BlindAccel float64
	// ClosingFactor discounts the current closing speed: the ADS keeps
	// braking through the early attack frames (temporal compensation),
	// so the realized decline of delta is slower than raw kinematics.
	ClosingFactor float64
}

var _ Oracle = (*AnalyticOracle)(nil)

// NewAnalyticOracle builds the analytic oracle for a vector.
func NewAnalyticOracle(v Vector) *AnalyticOracle {
	return &AnalyticOracle{Vector: v, BlindAccel: 0.5, ClosingFactor: 0.6}
}

// PredictDelta implements Oracle.
func (o *AnalyticOracle) PredictDelta(s State, k int) float64 {
	t := float64(k) * sim.DT
	switch o.Vector {
	case VectorMoveIn:
		// The target does not move; the EV keeps approaching it at its
		// own speed. The hijack only changes where the planner thinks
		// the target is laterally.
		closing := s.EVSpeed
		return s.Delta - closing*t
	default:
		// Move_Out / Disappear: the planner stops braking for the
		// target, so the EV drifts back toward its cruise speed while
		// the true gap closes.
		closing := -s.VRel.X * o.ClosingFactor
		if closing < 0 {
			closing = 0
		}
		return s.Delta - closing*t - 0.5*o.BlindAccel*t*t
	}
}

// OracleCloner is implemented by oracles whose prediction path keeps
// per-call mutable state and which therefore cannot be shared across
// concurrently running episodes.
type OracleCloner interface {
	Oracle
	// CloneOracle returns an independent copy safe for use from
	// another goroutine.
	CloneOracle() Oracle
}

// CloneOracles derives a per-episode view of an oracle map for
// concurrent use: cloneable oracles are cloned, stateless ones (such
// as the analytic oracle) are shared. A nil map stays nil.
func CloneOracles(oracles map[Vector]Oracle) map[Vector]Oracle {
	if oracles == nil {
		return nil
	}
	out := make(map[Vector]Oracle, len(oracles))
	for v, o := range oracles {
		if c, ok := o.(OracleCloner); ok {
			out[v] = c.CloneOracle()
		} else {
			out[v] = o
		}
	}
	return out
}

// NNOracle wraps a trained feed-forward network (paper §IV-B) as an
// Oracle. Predictions run through the network's pooled inference path
// (nn.Network.Infer), so a warm PredictDelta call performs zero heap
// allocations; the scratch makes an NNOracle single-goroutine —
// concurrent episodes clone it (OracleCloner).
type NNOracle struct {
	Net *nn.Network

	scratch *nn.InferScratch
	in      []float64
}

var _ OracleCloner = (*NNOracle)(nil)

// PredictDelta implements Oracle.
func (o *NNOracle) PredictDelta(s State, k int) float64 {
	if o.scratch == nil {
		o.scratch = o.Net.NewInferScratch()
		o.in = make([]float64, 0, EncodeDim)
	}
	o.in = s.EncodeInto(o.in, k)
	return o.Net.Infer(o.scratch, o.in)[0]
}

// CloneOracle implements OracleCloner: the network's inference scratch
// is per-goroutine, so each concurrent episode runner gets its own
// copy of the weights and scratch.
func (o *NNOracle) CloneOracle() Oracle { return &NNOracle{Net: o.Net.Clone()} }

// SafetyHijackerConfig parametrizes the when-to-attack decision.
type SafetyHijackerConfig struct {
	// Gamma is the predicted safety potential below which the attack is
	// worth launching (the paper's predefined 10 m threshold, §III-D).
	Gamma float64
	// GammaMoveIn is the tighter threshold for Move_In attacks: a fake
	// cut-in only forces emergency braking if it materializes when the
	// EV is too close to brake comfortably, so the attack aims at the
	// accident-level potential (delta ~ 4 m).
	GammaMoveIn float64
	// KMaxVehicle and KMaxPedestrian bound the attack duration at the
	// 99th percentile of the characterized natural misdetection runs
	// (Fig. 5: ~59 and ~31 frames), so a failed attack still looks like
	// detector noise to an IDS.
	KMaxVehicle    int
	KMaxPedestrian int
	// KMin is the minimum duration worth launching.
	KMin int
}

// DefaultSafetyHijackerConfig returns the paper's thresholds.
func DefaultSafetyHijackerConfig() SafetyHijackerConfig {
	return SafetyHijackerConfig{
		Gamma:          10,
		GammaMoveIn:    -2,
		KMaxVehicle:    59,
		KMaxPedestrian: 31,
		KMin:           4,
	}
}

// SafetyHijacker decides when to attack and for how many frames
// (paper §IV-B, Eq. 2).
type SafetyHijacker struct {
	cfg     SafetyHijackerConfig
	oracles map[Vector]Oracle
}

// NewSafetyHijacker creates a safety hijacker with one oracle per
// attack vector. Vectors without an entry fall back to the analytic
// oracle.
func NewSafetyHijacker(cfg SafetyHijackerConfig, oracles map[Vector]Oracle) *SafetyHijacker {
	all := map[Vector]Oracle{
		VectorMoveOut:   NewAnalyticOracle(VectorMoveOut),
		VectorMoveIn:    NewAnalyticOracle(VectorMoveIn),
		VectorDisappear: NewAnalyticOracle(VectorDisappear),
	}
	for v, o := range oracles {
		all[v] = o
	}
	return &SafetyHijacker{cfg: cfg, oracles: all}
}

// KMax returns the configured stealth bound on attack duration for a
// class.
func (cfg SafetyHijackerConfig) KMax(cls sim.Class) int {
	if cls == sim.ClassPedestrian {
		return cfg.KMaxPedestrian
	}
	return cfg.KMaxVehicle
}

// Decision is the safety hijacker's output.
type Decision struct {
	Attack bool
	// K is the number of frames the attack must be sustained (Eq. 2).
	K int
	// PredictedDelta is f_alpha(s, K), recorded for the Fig. 8 study.
	PredictedDelta float64
}

// Decide evaluates Eq. 2: the minimal k <= KMax with predicted
// delta_{t+k} <= gamma, found by binary search (f_alpha is
// non-increasing in k for the scenarios considered, §IV-B). Attack is
// false when even KMax frames cannot push the safety potential below
// gamma.
func (sh *SafetyHijacker) Decide(s State, v Vector, cls sim.Class) (Decision, error) {
	return sh.DecideWith(sh.cfg, s, v, cls)
}

// DecideWith evaluates Eq. 2 under an alternative threshold
// configuration, consulting the hijacker's oracles. It is the hook for
// parameterized attack policies: a policy searches the same oracle
// under its own gamma / K bounds without rebuilding the hijacker.
func (sh *SafetyHijacker) DecideWith(cfg SafetyHijackerConfig, s State, v Vector, cls sim.Class) (Decision, error) {
	oracle, ok := sh.oracles[v]
	if !ok {
		return Decision{}, fmt.Errorf("core: no oracle for vector %v", v)
	}
	gamma := cfg.Gamma
	if v == VectorMoveIn {
		gamma = cfg.GammaMoveIn
	}
	kMax := cfg.KMax(cls)
	// A NaN forecast means the oracle has no usable prediction; it
	// would slip past the > gamma guard (NaN compares false) and launch
	// a kMax attack on garbage, so hold fire explicitly.
	if pred := oracle.PredictDelta(s, kMax); pred > gamma || math.IsNaN(pred) {
		return Decision{Attack: false, PredictedDelta: pred}, nil
	}
	lo, hi := 1, kMax // invariant: f(hi) <= gamma
	for lo < hi {
		mid := (lo + hi) / 2
		if oracle.PredictDelta(s, mid) <= gamma {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k := hi
	if k < cfg.KMin {
		k = cfg.KMin
	}
	return Decision{Attack: true, K: k, PredictedDelta: oracle.PredictDelta(s, k)}, nil
}
