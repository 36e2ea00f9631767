// Pedestrian crossing under attack: the paper's DS-2 scenario with a
// Move_Out hijack of the crossing pedestrian, traced frame by frame by
// stepping the episode experiment.RunCtx runs (Scratch.Start, then
// Episode.Step once per frame).
// The printout shows the EV yielding in the golden run and driving into
// the conflict once the hijack displaces the perceived pedestrian.
// After the trace, the same attack is surveyed across a batch of seeds
// run on the engine's worker pool and printed in seed order.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sim"
)

func main() {
	const seed = 3
	ep, err := experiment.NewScratch().Start(context.Background(), experiment.RunConfig{
		Scenario: scenario.DS2,
		Seed:     seed,
		Attack: experiment.AttackSetup{
			Mode:               core.ModeSmart,
			PreferDisappearFor: sim.ClassVehicle, // pedestrians get Move_Out
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	w, malware := ep.Scenario().World, ep.Malware()
	ped := w.Actor(ep.Scenario().TargetID)
	safety := planner.DefaultSafetyConfig()

	fmt.Println("frame  t(s)  EV speed  mode             ped gap  ped lat  attacking  delta")
	for i := 0; ep.Step(); i++ {
		if i%15 == 0 || w.Halted {
			fmt.Printf("%5d %5.1f %8.1f  %-16v %7.1f %8.2f %10v %6.1f\n",
				i, w.Time(), w.EV.Speed, ep.Decision().Mode,
				ped.Pos.X-w.EV.Pos.X, ped.Pos.Y, malware.Attacking(),
				safety.GroundTruthDelta(w))
		}
	}
	log2 := malware.Log()
	fmt.Printf("\nattack: launched=%v vector=%v K=%d K'=%d\n",
		log2.Launched, log2.Vector, log2.K, log2.KPrime)
	fmt.Printf("outcome: halted(accident)=%v final EV speed=%.1f m/s\n", w.Halted, w.EV.Speed)

	// Survey the same attack across a batch of seeds: episodes run on
	// the worker pool, each seeded from (baseSeed, index), and stream
	// out in index order, so the survey prints the same on every run.
	const surveyRuns = 8
	fmt.Printf("\nstreaming the same attack across %d seeds:\n", surveyRuns)
	jobs := make([]engine.Job, surveyRuns)
	for i := range jobs {
		jobs[i] = func(ctx context.Context, jobSeed int64) (any, error) {
			return experiment.RunCtx(ctx, experiment.RunConfig{
				Scenario: scenario.DS2,
				Seed:     jobSeed,
				Attack: experiment.AttackSetup{
					Mode:               core.ModeSmart,
					PreferDisappearFor: sim.ClassVehicle,
				},
			})
		}
	}
	for r := range engine.New().StreamOrdered(seed, jobs) {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		rr := r.Value.(experiment.RunResult)
		fmt.Printf("  seed %2d: launched=%-5v EB=%-5v accident=%-5v min delta=%5.1f m\n",
			r.Seed, rr.Launched, rr.EB, rr.Crashed, rr.MinDelta)
	}
}
