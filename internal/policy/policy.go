// Package policy closes the loop between campaigns and the malware: it
// searches smart mode's trigger, core.SafetyHijackerConfig, whose
// default is the paper's safety hijacker (§IV-B), over its trigger
// thresholds and injection geometry (fake-obstacle placement and drift
// speed, masking choice, timing jitter). The package ships a
// versioned JSON artifact format (kind "paper" builds the default
// config) and a deterministic evolution-strategy trainer that searches
// the config's space by running generations of campaigns on the
// engine. Related work (MERLIN, MAB-Malware) searches its attacks too
// and reports them on held-out samples; the allocation-free frame
// pipeline makes the search affordable here — hundreds of
// deterministic episode evaluations per second per machine.
package policy

import (
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/stats"
)

// space is the search space: each core.SafetyHijackerConfig field's
// JSON name and admissible interval, in field order, which is the
// order mutate draws them in and validate checks them in. The K caps'
// upper limits are the paper's stealth caps: the search may fire
// shorter attacks than the paper, never longer ones.
var space = []struct {
	name   string
	lo, hi float64
}{
	{"gamma", 2, 30},
	{"gamma_move_in", -6, 10},
	{"k_min", 1, 12},
	{"k_max_vehicle", 8, float64(core.DefaultSafetyHijackerConfig().KMaxVehicle)},
	{"k_max_pedestrian", 8, float64(core.DefaultSafetyHijackerConfig().KMaxPedestrian)},
	{"delay", 0, 30},
	{"offset_scale", 0.5, 2},
	{"offset_bias_m", -0.5, 1.5},
	{"step_scale", 0.5, 2},
	{"swap_masking", 0, 1},
}

// vector flattens p in space's order (bools as 0/1).
func vector(p core.SafetyHijackerConfig) []float64 {
	swap := 0.0
	if p.SwapMasking {
		swap = 1
	}
	return []float64{
		p.Gamma, p.GammaMoveIn, float64(p.KMin), float64(p.KMaxVehicle),
		float64(p.KMaxPedestrian), float64(p.Delay), p.OffsetScale,
		p.OffsetBiasM, p.StepScale, swap,
	}
}

// fromVector rebuilds a config from a vector in space's order, rounding
// the integer-valued dimensions and thresholding the boolean one.
func fromVector(v []float64) core.SafetyHijackerConfig {
	return core.SafetyHijackerConfig{
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

// validate rejects a config outside the search space.
func validate(p core.SafetyHijackerConfig) error {
	for i, x := range vector(p) {
		d := space[i]
		if math.IsNaN(x) || x < d.lo || x > d.hi {
			return fmt.Errorf("policy: param %s = %v outside [%v, %v]", d.name, x, d.lo, d.hi)
		}
	}
	return nil
}

// mutate draws a Gaussian perturbation of p scaled by sigma (a fraction
// of each interval's width), clamped into the search space. Every
// integer dimension's bounds are integers, so clamping before rounding
// gives what rounding before clamping would. The rng is consumed once
// per dimension in space's order, so a mutation is a pure function of
// (p, sigma, rng state).
func mutate(p core.SafetyHijackerConfig, sigma float64, rng *stats.RNG) core.SafetyHijackerConfig {
	v := vector(p)
	for i, d := range space {
		v[i] = math.Min(math.Max(rng.Normal(v[i], sigma*(d.hi-d.lo)), d.lo), d.hi)
	}
	return fromVector(v)
}
