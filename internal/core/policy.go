package core

import "github.com/robotack/robotack/internal/sim"

// PolicyInput is the malware's per-frame view handed to its trigger
// once a matched target is available: the frame, the oracle input
// state, the scenario matcher's Table I vector and the target's class.
// It gives a trigger no access to ADS or simulator ground truth (the
// §III-B threat model is unchanged: triggers see only what the
// malware's own camera-side pipeline reconstructs).
type PolicyInput struct {
	// Frame is the episode frame index.
	Frame int
	// State is the safety-hijacker oracle input (delta, vrel, arel,
	// EV speed) for the matched target.
	State State
	// Vector is the scenario matcher's Table I choice for this target.
	Vector Vector
	// Class is the target's perceived class.
	Class sim.Class
}

// PolicyDecision is a trigger's answer: whether to launch this frame,
// with what vector, for how long, and how to shape the injected
// trajectory. The zero shaping values (OffsetScale 0, OffsetBiasM 0,
// StepScale 0, Delay 0) mean "exactly the paper's geometry": the
// launch treats 0 scales as 1.0 and applies no bias or delay.
type PolicyDecision struct {
	Attack bool
	// Vector replaces the matcher's choice (the masking choice: the
	// Move_Out/Disappear cells of Table I are interchangeable).
	// VectorNone keeps the matcher's vector.
	Vector Vector
	// K is the attack duration in frames (Eq. 2's k*).
	K int
	// PredictedDelta is the policy's delta_{t+K} forecast, recorded
	// for the Fig. 8 study (NaN: no forecast).
	PredictedDelta float64
	// Delay postpones the perturbation onset by this many frames
	// after launch (timing jitter; ignored for Disappear).
	Delay int
	// OffsetScale multiplies the planned lateral displacement Omega
	// (0 means 1.0 — unscaled).
	OffsetScale float64
	// OffsetBiasM adds meters to Omega after scaling.
	OffsetBiasM float64
	// StepScale multiplies the Move_Out per-frame drift cap (0 means
	// 1.0 — the paper's fusion-following rate).
	StepScale float64
}

// TriggerPolicy decides when the malware attacks: the malware consults
// its trigger whenever the matcher proposes an attackable target. Smart
// mode's trigger is the default SafetyHijackerConfig unless
// Config.Policy sets another, Config.Forced's ForcedPlan is the trigger
// of training-data runs, and R w/o SH's fires at a random frame. The
// safety hijacker (with its per-episode oracles) is passed in so
// triggers can run Eq. 2's oracle search under their own thresholds.
//
// Implementations must be stateless and goroutine-safe: one policy
// value is shared by every worker of a campaign batch, and Consult may
// be called concurrently from different episodes (each with its own
// SafetyHijacker). Determinism of the whole campaign rests on Consult
// being a pure function of its inputs.
type TriggerPolicy interface {
	Consult(in PolicyInput, sh *SafetyHijacker) (PolicyDecision, error)
}

// paperTrigger is smart mode's trigger when Config.Policy is nil. It
// is boxed once here: boxing the config in Reset would allocate per
// episode.
var paperTrigger TriggerPolicy = DefaultSafetyHijackerConfig()

// Consult implements TriggerPolicy: it applies the masking swap, runs
// Eq. 2 under cfg's thresholds and shapes the launch with cfg's delay,
// offset and step. A scale of 1 and a bias of 0 leave the launch
// geometry's bits as they are, so the default is the paper's trigger.
func (cfg SafetyHijackerConfig) Consult(in PolicyInput, sh *SafetyHijacker) (PolicyDecision, error) {
	v := in.Vector
	if cfg.SwapMasking {
		switch v {
		case VectorMoveOut:
			v = VectorDisappear
		case VectorDisappear:
			v = VectorMoveOut
		}
	}
	dec, err := sh.Decide(cfg, in.State, v, in.Class)
	if err != nil || !dec.Attack {
		return PolicyDecision{PredictedDelta: dec.PredictedDelta}, err
	}
	return PolicyDecision{
		Attack:         true,
		Vector:         v,
		K:              dec.K,
		PredictedDelta: dec.PredictedDelta,
		Delay:          cfg.Delay,
		OffsetScale:    cfg.OffsetScale,
		OffsetBiasM:    cfg.OffsetBiasM,
		StepScale:      cfg.StepScale,
	}, nil
}
