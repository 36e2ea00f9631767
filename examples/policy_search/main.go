// Search an attack policy and compare it with the paper's trigger.
// A tiny (1+lambda) evolution strategy mutates the paper trigger's
// thresholds and injection geometry (core.SafetyHijackerConfig), scoring
// each candidate on smart-mode DS-1/DS-2 campaigns; the winner is then
// evaluated side by side with the paper trigger on fresh seeds. The
// whole program is deterministic — run it twice and every byte of
// output matches.
package main

import (
	"fmt"
	"log"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/policy"
	"github.com/robotack/robotack/internal/scenario"
)

func main() {
	eng := engine.New()
	battery := []experiment.Campaign{
		{Name: "DS-1", Scenario: scenario.DS1, Mode: core.ModeSmart, ExpectCrashes: true},
		{Name: "DS-2", Scenario: scenario.DS2, Mode: core.ModeSmart, ExpectCrashes: true},
	}

	res, err := policy.Train(eng, policy.TrainerConfig{
		Battery:     battery,
		Runs:        6,
		Generations: 3,
		Population:  4,
		BaseSeed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("searched %d candidates; best fitness %.4f (gen %d)\n",
		res.Evaluated, res.Best.Fitness, res.Best.Gen)

	// Evaluate paper trigger vs trained policy on seeds the search
	// never saw: same campaigns, same seeds, only the trigger differs.
	trained, err := res.Artifact.Build()
	if err != nil {
		log.Fatal(err)
	}
	const evalSeed, evalRuns = 777, 12
	for _, c := range battery {
		paper, err := experiment.RunCampaignOn(eng, c, evalRuns, evalSeed, nil)
		if err != nil {
			log.Fatal(err)
		}
		ours, err := experiment.RunCampaignOn(eng, c.WithPolicy("trained", trained), evalRuns, evalSeed, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: paper EB %d/%d crash %d  |  trained EB %d/%d crash %d\n",
			c.Name, paper.EBs, paper.Runs, paper.Crashes,
			ours.EBs, ours.Runs, ours.Crashes)
	}
}
