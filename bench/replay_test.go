package main

import (
	"context"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/stats"
)

// TestReplayMatchesRunCtx keeps the frame replayer outcome-identical
// to experiment.RunCtx: five seeds of every Table II campaign with the
// analytic oracle and with a fixed, seeded NN oracle, plus forced-attack
// and generated-scenario episodes. If RunCtx changes, this fails instead
// of the layer numbers silently measuring something else.
func TestReplayMatchesRunCtx(t *testing.T) {
	net := nn.NewRegressor(core.EncodeDim, stats.NewRNG(11))
	nnOracles := map[core.Vector]core.Oracle{
		core.VectorMoveOut:   &core.NNOracle{Net: net},
		core.VectorMoveIn:    &core.NNOracle{Net: net},
		core.VectorDisappear: &core.NNOracle{Net: net},
	}
	var cfgs []experiment.RunConfig
	for _, oracles := range []map[core.Vector]core.Oracle{nil, nnOracles} {
		for _, c := range experiment.TableIICampaigns() {
			for seed := int64(1); seed <= 5; seed++ {
				cfgs = append(cfgs, experiment.RunConfig{Source: c.Scenario, Seed: seed, Attack: experiment.AttackSetup{
					Mode: c.Mode, PreferDisappearFor: c.PreferDisappearFor, Policy: c.Policy, Oracles: oracles}})
			}
		}
	}
	for i, cfg := range forcedEpisodes(3) {
		if i%16 == 0 {
			cfgs = append(cfgs, cfg)
		}
	}
	b := newBenchRun("serve-fleet", 7, 0, tinySizes, false)
	req := b.fleetRequest("replay", 1)
	src, err := req.Source()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfgs = append(cfgs, experiment.RunConfig{Source: src, Seed: seed, Attack: experiment.AttackSetup{Mode: core.ModeSmart}})
	}

	rp := newReplayer()
	for _, cfg := range cfgs {
		want, err := experiment.RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rp.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		label := cfg.Scenario.Label()
		if cfg.Source != nil {
			label = cfg.Source.Label()
		}
		w := experiment.RecordEpisode("c", 0, cfg.Seed, label, cfg.Attack.Mode, true, want)
		g := experiment.RecordEpisode("c", 0, cfg.Seed, label, cfg.Attack.Mode, true, got)
		if g != w {
			t.Errorf("%s seed %d (nn=%v, forced=%v): replay %+v, RunCtx %+v",
				label, cfg.Seed, cfg.Attack.Oracles != nil, cfg.Attack.Forced != nil, g, w)
		}
	}
	if rp.frames == 0 {
		t.Fatal("nothing replayed")
	}
}
