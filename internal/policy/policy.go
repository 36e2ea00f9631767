// Package policy closes the loop between campaigns and the malware:
// in place of the paper's safety-hijacking trigger (core.PaperTrigger),
// the malware consults an attack policy every frame — WHEN to fire and
// WHAT to inject (fake-obstacle placement and drift speed, masking
// choice, timing jitter). The package ships a parameterized family
// over trigger thresholds and injection geometry (ParamPolicy) whose
// DefaultParams member is the paper's trigger, a versioned JSON
// artifact format (kind "paper" builds core.PaperTrigger itself), and
// a deterministic evolution-strategy trainer that searches the
// parameter space by running generations of campaigns on the engine. Related work (MERLIN,
// MAB-Malware) shows searched attacks dominate hard-coded ones; the
// allocation-free frame pipeline makes that search affordable here —
// hundreds of deterministic episode evaluations per second per machine.
package policy

import (
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/core"
)

// Params is the searchable attack-policy parameter vector: the trigger
// thresholds of the safety hijacker (when to fire), the injection
// geometry (where the fake obstacle goes and how fast it drifts),
// timing jitter, and the masking choice. DefaultParams reproduces the
// paper's trigger; the trainer mutates within Bounds.
type Params struct {
	// Gamma is the predicted-delta launch threshold for Move_Out and
	// Disappear attacks (paper: 10 m).
	Gamma float64 `json:"gamma"`
	// GammaMoveIn is the tighter Move_In threshold (paper: -2 m).
	GammaMoveIn float64 `json:"gamma_move_in"`
	// KMin is the minimum duration worth launching (paper: 4).
	KMin int `json:"k_min"`
	// KMaxVehicle / KMaxPedestrian bound the attack duration. The
	// upper bounds equal the paper's 99th-percentile stealth caps
	// (Fig. 5), so every searched policy stays IDS-stealthy.
	KMaxVehicle    int `json:"k_max_vehicle"`
	KMaxPedestrian int `json:"k_max_pedestrian"`
	// Delay postpones the perturbation onset by this many frames
	// after the trigger fires (timing jitter).
	Delay int `json:"delay"`
	// OffsetScale multiplies the planned lateral displacement Omega.
	OffsetScale float64 `json:"offset_scale"`
	// OffsetBiasM adds meters to Omega after scaling.
	OffsetBiasM float64 `json:"offset_bias_m"`
	// StepScale multiplies the Move_Out per-frame drift cap (the
	// fake obstacle's apparent lateral speed).
	StepScale float64 `json:"step_scale"`
	// SwapMasking flips the interchangeable Move_Out/Disappear cells
	// of Table I: targets the matcher would mask with Move_Out get
	// Disappear and vice versa.
	SwapMasking bool `json:"swap_masking"`
}

// DefaultParams returns the paper-equivalent parameters: evaluating
// them reproduces core.PaperTrigger's decisions, so the trainer's
// generation 0 is the paper's trigger.
func DefaultParams() Params {
	sh := core.DefaultSafetyHijackerConfig()
	return Params{
		Gamma:          sh.Gamma,
		GammaMoveIn:    sh.GammaMoveIn,
		KMin:           sh.KMin,
		KMaxVehicle:    sh.KMaxVehicle,
		KMaxPedestrian: sh.KMaxPedestrian,
		OffsetScale:    1,
		StepScale:      1,
	}
}

// Bound is one parameter's search interval.
type Bound struct{ Lo, Hi float64 }

// Bounds is the search space: every parameter's admissible interval.
// The K bounds' upper limits are the paper's stealth caps — the search
// may fire shorter attacks than the paper, never longer ones.
var Bounds = map[string]Bound{
	"gamma":            {2, 30},
	"gamma_move_in":    {-6, 10},
	"k_min":            {1, 12},
	"k_max_vehicle":    {8, 59},
	"k_max_pedestrian": {8, 31},
	"delay":            {0, 30},
	"offset_scale":     {0.5, 2},
	"offset_bias_m":    {-0.5, 1.5},
	"step_scale":       {0.5, 2},
	"swap_masking":     {0, 1},
}

// paramOrder fixes the vector layout used by the trainer's mutation
// and by Validate's error messages.
var paramOrder = []string{
	"gamma", "gamma_move_in", "k_min", "k_max_vehicle",
	"k_max_pedestrian", "delay", "offset_scale", "offset_bias_m",
	"step_scale", "swap_masking",
}

// vector flattens the params in paramOrder (bools as 0/1).
func (p Params) vector() []float64 {
	return []float64{
		p.Gamma, p.GammaMoveIn, float64(p.KMin), float64(p.KMaxVehicle),
		float64(p.KMaxPedestrian), float64(p.Delay), p.OffsetScale,
		p.OffsetBiasM, p.StepScale, b2f(p.SwapMasking),
	}
}

// fromVector rebuilds params from a paramOrder vector, rounding the
// integer-valued dimensions and thresholding the boolean one.
func fromVector(v []float64) Params {
	return Params{
		Gamma:          v[0],
		GammaMoveIn:    v[1],
		KMin:           int(math.Round(v[2])),
		KMaxVehicle:    int(math.Round(v[3])),
		KMaxPedestrian: int(math.Round(v[4])),
		Delay:          int(math.Round(v[5])),
		OffsetScale:    v[6],
		OffsetBiasM:    v[7],
		StepScale:      v[8],
		SwapMasking:    v[9] >= 0.5,
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Clamp projects the params back into Bounds (integer dimensions are
// rounded by construction).
func (p Params) Clamp() Params {
	v := p.vector()
	for i, name := range paramOrder {
		b := Bounds[name]
		v[i] = math.Min(math.Max(v[i], b.Lo), b.Hi)
	}
	return fromVector(v)
}

// Validate rejects parameters outside the search space.
func (p Params) Validate() error {
	v := p.vector()
	for i, name := range paramOrder {
		b := Bounds[name]
		if math.IsNaN(v[i]) || v[i] < b.Lo || v[i] > b.Hi {
			return fmt.Errorf("policy: param %s = %v outside [%v, %v]", name, v[i], b.Lo, b.Hi)
		}
	}
	return nil
}

// ParamPolicy evaluates a Params vector as an attack policy: the
// safety hijacker's oracle search runs under the params' thresholds,
// the masking choice may be flipped, and the launch geometry is shaped
// by the offset/step/delay parameters. It is stateless — one value
// serves every worker of a campaign batch.
type ParamPolicy struct {
	P Params
}

var _ core.TriggerPolicy = (*ParamPolicy)(nil)

// New builds a ParamPolicy after validating p.
func New(p Params) (*ParamPolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &ParamPolicy{P: p}, nil
}

// Consult implements core.TriggerPolicy.
func (pp *ParamPolicy) Consult(in core.PolicyInput, sh *core.SafetyHijacker) (core.PolicyDecision, error) {
	v := in.Vector
	if pp.P.SwapMasking {
		switch v {
		case core.VectorMoveOut:
			v = core.VectorDisappear
		case core.VectorDisappear:
			v = core.VectorMoveOut
		}
	}
	cfg := core.SafetyHijackerConfig{
		Gamma:          pp.P.Gamma,
		GammaMoveIn:    pp.P.GammaMoveIn,
		KMin:           pp.P.KMin,
		KMaxVehicle:    pp.P.KMaxVehicle,
		KMaxPedestrian: pp.P.KMaxPedestrian,
	}
	dec, err := sh.DecideWith(cfg, in.State, v, in.Class)
	if err != nil || !dec.Attack {
		return core.PolicyDecision{PredictedDelta: dec.PredictedDelta}, err
	}
	return core.PolicyDecision{
		Attack:         true,
		Vector:         v,
		K:              dec.K,
		PredictedDelta: dec.PredictedDelta,
		Delay:          pp.P.Delay,
		OffsetScale:    pp.P.OffsetScale,
		OffsetBiasM:    pp.P.OffsetBiasM,
		StepScale:      pp.P.StepScale,
	}, nil
}

// mutate draws a Gaussian perturbation of p scaled by sigma (a
// fraction of each bound's range), clamped back into Bounds. The rng
// is consumed once per dimension in paramOrder, so a mutation is a
// pure function of (p, sigma, rng state).
func mutate(p Params, sigma float64, rng interface {
	Normal(mean, sigma float64) float64
}) Params {
	v := p.vector()
	for i, name := range paramOrder {
		b := Bounds[name]
		v[i] = rng.Normal(v[i], sigma*(b.Hi-b.Lo))
	}
	return fromVector(v).Clamp()
}
