package experiment

import (
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/results"
)

// TestSmartCampaignsRespectStealthCaps holds the paper's stealth
// invariants (§IV-B, Fig. 5) at campaign level: across every smart-mode
// Table II campaign, each launched attack lasts between KMin and the
// target class's KMax frames — the 99th percentile of natural
// misdetection runs, 59 for vehicles and 31 for pedestrians — so a
// failed attack still looks like detector noise, and its shift time K'
// never exceeds the attack it belongs to.
func TestSmartCampaignsRespectStealthCaps(t *testing.T) {
	caps := core.DefaultConfig(core.ModeSmart).Safety
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
