package experiment

import (
	"context"
	"errors"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
)

// TestSmartCampaignsRespectStealthCaps holds the paper's stealth
// invariants (§IV-B, Fig. 5) at campaign level: across every smart-mode
// Table II campaign, each launched attack lasts between KMin and the
// target class's KMax frames — the 99th percentile of natural
// misdetection runs, 59 for vehicles and 31 for pedestrians — so a
// failed attack still looks like detector noise, and its shift time K'
// never exceeds the attack it belongs to.
func TestSmartCampaignsRespectStealthCaps(t *testing.T) {
	caps := core.DefaultSafetyHijackerConfig()
	const runs = 40
	for _, c := range TableIICampaigns() {
		if c.Mode != core.ModeSmart {
			continue
		}
		mem := results.NewMemStore()
		if _, err := RunCampaignOn(engine.New(), c, runs, 4000, nil, WithSink(mem)); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		eps, err := mem.Episodes(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(eps) != runs {
			t.Fatalf("%s: %d stored episodes, want %d", c.Name, len(eps), runs)
		}
		launched := 0
		for _, ep := range eps {
			if !ep.Launched {
				continue
			}
			launched++
			if kmax := caps.KMax(ep.TargetClass); ep.K < caps.KMin || ep.K > kmax {
				t.Errorf("%s episode %d: K = %d outside [%d, %d] for a %v target",
					c.Name, ep.Index, ep.K, caps.KMin, kmax, ep.TargetClass)
			}
			if ep.KPrime < 0 || ep.KPrime > ep.K {
				t.Errorf("%s episode %d: K' = %d outside [0, K = %d]",
					c.Name, ep.Index, ep.KPrime, ep.K)
			}
		}
		if launched == 0 {
			t.Errorf("%s: no episode launched, so the caps went unchecked", c.Name)
		}
	}
}

// neverFire is a trigger policy that declines every attack the matcher
// proposes, counting the proposals.
type neverFire struct{ consulted *int }

func (p neverFire) Consult(core.PolicyInput, *core.SafetyHijacker) (core.PolicyDecision, error) {
	*p.consulted++
	return core.PolicyDecision{}, nil
}

// TestSilentMalwareInvisible holds the other side of stealth: malware
// that sits on the camera link but never fires leaves the drive exactly
// as golden. For DS-1 to DS-5 and seeds 1-4 it steps a golden episode
// and a smart-mode one whose trigger policy never fires side by side,
// and requires the same frame count and, on every frame, the same EV
// position, EV speed and planner mode.
func TestSilentMalwareInvisible(t *testing.T) {
	ctx := context.Background()
	golden, silent := NewScratch(), NewScratch()
	consulted, frames := 0, 0
	for id := scenario.DS1; id <= scenario.DS5; id++ {
		for seed := int64(1); seed <= 4; seed++ {
			g, gErr := golden.Start(ctx, RunConfig{Scenario: id, Seed: seed})
			m, mErr := silent.Start(ctx, RunConfig{Scenario: id, Seed: seed,
				Attack: AttackSetup{Mode: core.ModeSmart, Policy: neverFire{&consulted}}})
			if err := errors.Join(gErr, mErr); err != nil {
				t.Fatal(err)
			}
			gw, mw := g.Scenario().World, m.Scenario().World
			for i := 0; ; i++ {
				more := g.Step()
				if m.Step() != more {
					t.Fatalf("%v seed %d: one episode ended after %d frames, the other did not", id, seed, i)
				}
				if !more {
					break
				}
				frames++
				if gw.EV.Pos != mw.EV.Pos || gw.EV.Speed != mw.EV.Speed || g.Decision().Mode != m.Decision().Mode {
					t.Fatalf("%v seed %d frame %d: silent malware moved the EV: golden %v %v %v, silent %v %v %v",
						id, seed, i, gw.EV.Pos, gw.EV.Speed, g.Decision().Mode, mw.EV.Pos, mw.EV.Speed, m.Decision().Mode)
				}
			}
			if res, _ := m.Result(); res.Launched {
				t.Fatalf("%v seed %d: a policy that never fires launched an attack", id, seed)
			}
		}
	}
	if consulted == 0 {
		t.Fatal("the policy was never consulted, so the silent malware never proposed an attack")
	}
	t.Logf("%d frames matched; the policy declined %d proposals", frames, consulted)
}
