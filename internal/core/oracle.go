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
}

// Analytic oracle tuning.
const (
	// blindAccel is the assumed mean EV acceleration while the attack
	// blinds the planner to the target (Move_Out/Disappear).
	blindAccel float64 = 0.5
	// closingFactor discounts the current closing speed: the ADS keeps
	// braking through the early attack frames (temporal compensation),
	// so the realized decline of delta is slower than raw kinematics.
	closingFactor float64 = 0.6
)

var _ Oracle = (*AnalyticOracle)(nil)

// NewAnalyticOracle builds the analytic oracle for a vector.
func NewAnalyticOracle(v Vector) *AnalyticOracle {
	return &AnalyticOracle{Vector: v}
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
		closing := -s.VRel.X * closingFactor
		if closing < 0 {
			closing = 0
		}
		return s.Delta - closing*t - 0.5*blindAccel*t*t
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
// concurrent episodes clone it (OracleCloner), and the clones share
// Net.
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

// CloneOracle implements OracleCloner: inference only reads the
// network's weights, so the clone shares Net and gets a scratch of its
// own.
func (o *NNOracle) CloneOracle() Oracle { return &NNOracle{Net: o.Net} }

// SafetyHijackerConfig is smart mode's trigger (§IV-B): Eq. 2's
// thresholds and stealth caps decide when to launch and for how long,
// and the remaining fields shape the launch. The default is the
// paper's trigger; the policy search (internal/policy) looks for a
// stronger one, and the JSON names are those of its artifacts.
type SafetyHijackerConfig struct {
	// Gamma is the predicted safety potential below which the attack is
	// worth launching (the paper's predefined 10 m threshold, §III-D).
	Gamma float64 `json:"gamma"`
	// GammaMoveIn is the tighter threshold for Move_In attacks: a fake
	// cut-in only forces emergency braking if it materializes when the
	// EV is too close to brake comfortably, so the attack aims at the
	// accident-level potential (delta ~ 4 m).
	GammaMoveIn float64 `json:"gamma_move_in"`
	// KMin is the minimum duration worth launching.
	KMin int `json:"k_min"`
	// KMaxVehicle and KMaxPedestrian bound the attack duration at the
	// 99th percentile of the characterized natural misdetection runs
	// (Fig. 5: ~59 and ~31 frames), so a failed attack still looks like
	// detector noise to an IDS.
	KMaxVehicle    int `json:"k_max_vehicle"`
	KMaxPedestrian int `json:"k_max_pedestrian"`
	// Delay postpones the perturbation onset by this many frames after
	// launch (timing jitter; ignored for Disappear).
	Delay int `json:"delay"`
	// OffsetScale multiplies the planned lateral displacement Omega.
	OffsetScale float64 `json:"offset_scale"`
	// OffsetBiasM adds meters to Omega after scaling.
	OffsetBiasM float64 `json:"offset_bias_m"`
	// StepScale multiplies the Move_Out per-frame drift cap (the fake
	// obstacle's apparent lateral speed).
	StepScale float64 `json:"step_scale"`
	// SwapMasking flips the interchangeable Move_Out/Disappear cells of
	// Table I: targets the matcher would mask with Move_Out get
	// Disappear and vice versa.
	SwapMasking bool `json:"swap_masking"`
}

// DefaultSafetyHijackerConfig returns the paper's trigger: its
// thresholds and stealth caps, and the launch geometry unshaped.
func DefaultSafetyHijackerConfig() SafetyHijackerConfig {
	return SafetyHijackerConfig{
		Gamma:          10,
		GammaMoveIn:    -2,
		KMin:           4,
		KMaxVehicle:    59,
		KMaxPedestrian: 31,
		OffsetScale:    1,
		StepScale:      1,
	}
}

// SafetyHijacker holds one episode's oracles for Eq. 2 (paper §IV-B).
type SafetyHijacker struct {
	oracles map[Vector]Oracle
}

// NewSafetyHijacker creates a safety hijacker with one oracle per
// attack vector. Vectors without an entry fall back to the analytic
// oracle.
func NewSafetyHijacker(oracles map[Vector]Oracle) *SafetyHijacker {
	all := map[Vector]Oracle{
		VectorMoveOut:   NewAnalyticOracle(VectorMoveOut),
		VectorMoveIn:    NewAnalyticOracle(VectorMoveIn),
		VectorDisappear: NewAnalyticOracle(VectorDisappear),
	}
	for v, o := range oracles {
		all[v] = o
	}
	return &SafetyHijacker{oracles: all}
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

// Decide evaluates Eq. 2 under cfg's thresholds with the oracle of
// vector v: K is the smallest k <= KMax with forecast delta_{t+k} <=
// gamma, raised to KMin. Attack is false when the KMax forecast is
// above gamma or NaN. The k comes from a binary search, which finds
// the smallest one only if the forecast never rises in k. The analytic
// oracle never does (TestAnalyticOracleMonotoneInK); a trained one may,
// and then the search returns some k whose forecast is at most gamma
// (ROADMAP item 4).
func (sh *SafetyHijacker) Decide(cfg SafetyHijackerConfig, s State, v Vector, cls sim.Class) (Decision, error) {
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
