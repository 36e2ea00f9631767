// Train a safety-hijacker oracle (paper §IV-B) on forced-attack data
// for the Disappear vector and query it: "if I hide the pedestrian for
// k frames now, what will the safety potential be afterwards?" The
// forced-attack data-collection sweeps run in parallel on an engine.
package main

import (
	"fmt"
	"log"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sim"
)

func main() {
	spec := experiment.OracleSpec{
		Vector: core.VectorDisappear,
		Sweeps: []experiment.OracleSweep{{
			Scenario:           scenario.DS2,
			PreferDisappearFor: sim.ClassPedestrian,
			TargetClass:        sim.ClassPedestrian,
		}},
		DeltaGrid:     []float64{10, 15, 20, 25, 30, 36},
		SeedsPerPoint: 2,
	}
	eng := engine.New() // one worker per CPU; training stays deterministic
	oracles, infos, err := experiment.TrainOraclesOn(eng,
		[]experiment.OracleSpec{spec}, 4242,
		nn.TrainConfig{Epochs: 40, BatchSize: 32, LR: 1e-3})
	if err != nil {
		log.Fatal(err)
	}
	info := infos[0]
	fmt.Printf("trained on %d samples; validation MAE %.2f m (paper: ~1-1.5 m for pedestrians)\n",
		info.Samples, info.Result.ValMAE)

	oracle := oracles[core.VectorDisappear]
	state := core.State{
		Delta:   22,
		VRel:    geom.V(-11.5, 0),
		EVSpeed: 12.0,
	}
	fmt.Println("\nforecast: hide the pedestrian for k frames, predicted delta afterwards:")
	for _, k := range []int{5, 10, 15, 20, 25, 30} {
		fmt.Printf("  k=%2d -> delta %.1f m\n", k, oracle.PredictDelta(state, k))
	}

	sh := core.NewSafetyHijacker(oracles)
	dec, err := sh.Decide(core.DefaultSafetyHijackerConfig(), state, core.VectorDisappear, sim.ClassPedestrian)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsafety hijacker decision: attack=%v K=%d predicted delta=%.1f m\n",
		dec.Attack, dec.K, dec.PredictedDelta)
}
