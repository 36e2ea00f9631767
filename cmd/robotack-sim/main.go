// Command robotack-sim runs one closed-loop episode — a driving
// scenario with the full ADS stack, optionally with RoboTack installed
// on the camera link — and prints the outcome. The episode runs on a
// signal context, so Ctrl-C aborts it cleanly.
//
// The scenario can come from the built-in catalog (DS-1..DS-5), from a
// declarative JSON spec file, or from the procedural generator.
//
// Usage:
//
//	robotack-sim -scenario 2 -mode smart -seed 7
//	robotack-sim -scenario 1 -mode golden
//	robotack-sim -scenario-file my_world.json -mode smart
//	robotack-sim -generate -seed 42 -mode smart   # procedural scenario
//	robotack-sim -scenario 2 -out probes.jsonl    # append the episode record
//	robotack-sim -list-scenarios
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/segstore"
	"github.com/robotack/robotack/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenarioID   = flag.Int("scenario", 1, "driving scenario 1-5 (paper DS-1..DS-5)")
		scenarioFile = flag.String("scenario-file", "", "JSON scenario spec file (overrides -scenario)")
		generate     = flag.Bool("generate", false, "procedurally generate the scenario from -seed")
		list         = flag.Bool("list-scenarios", false, "list the built-in scenario catalog and exit")
		mode         = flag.String("mode", "smart", "attack mode: golden | smart | nosh | random")
		vector       = flag.String("vector", "", "steer Table I's Move_Out/Disappear choice: disappear-vehicles | disappear-pedestrians")
		seed         = flag.Int64("seed", 1, "episode seed")
		out          = flag.String("out", "", "append the episode's record to this results store (JSONL file or segstore directory, autodetected)")
		tel          obs.Flags
	)
	tel.RegisterLog(flag.CommandLine)
	flag.Parse()
	logger, _, err := tel.Start("sim")
	if err != nil {
		return err
	}
	defer tel.Stop()

	if *list {
		for _, name := range scenegen.Names() {
			fmt.Println(name)
		}
		return nil
	}

	src := scenario.Source(scenario.ID(*scenarioID))
	switch {
	case *scenarioFile != "":
		spec, err := scenegen.LoadFile(*scenarioFile)
		if err != nil {
			return err
		}
		src = scenario.FromSpec(spec)
	case *generate:
		src = scenario.FromGenerator(scenegen.NewGenerator(scenegen.DefaultSpace()))
	}

	setup := experiment.AttackSetup{}
	if setup.Mode, err = core.ParseMode(*mode); err != nil {
		return err
	}
	switch *vector {
	case "":
	case "disappear-vehicles":
		setup.PreferDisappearFor = sim.ClassVehicle
	case "disappear-pedestrians":
		setup.PreferDisappearFor = sim.ClassPedestrian
	default:
		return fmt.Errorf("unknown vector steering %q", *vector)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	logger.Debug("episode starting", "scenario", src.Label(), "mode", *mode, "seed", *seed)
	res, err := experiment.RunCtx(ctx, experiment.RunConfig{
		Source: src,
		Seed:   *seed,
		Attack: setup,
	})
	if err != nil {
		return err
	}

	fmt.Printf("scenario %s, mode %s, seed %d: %d frames simulated\n",
		src.Label(), *mode, *seed, res.Frames)
	if setup.Mode != 0 {
		if res.Launched {
			fmt.Printf("attack: %v on %v at frame %d, K=%d frames (K'=%d), delta at launch %.1f m\n",
				res.Vector, res.TargetClass, res.LaunchFrame, res.K, res.KPrime, res.DeltaAtLaunch)
		} else {
			fmt.Println("attack: never launched")
		}
	}
	fmt.Printf("emergency braking: %v\n", res.EB)
	fmt.Printf("accident (delta < 4 m): %v\n", res.Crashed)
	fmt.Printf("min safety potential: %.1f m\n", res.MinDelta)

	if *out != "" {
		store, err := segstore.OpenAny(*out)
		if err != nil {
			return err
		}
		// One-shot probes share a campaign key per (scenario, mode, seed)
		// so repeated identical invocations overwrite rather than pile up.
		key := fmt.Sprintf("sim-%s-%s-seed%d", src.Label(), strings.ToLower(*mode), *seed)
		err = store.Append(experiment.RecordEpisode(key, 0, *seed, src.Label(), setup.Mode, true, res))
		// Close syncs the segment and writes its index: its error is the
		// write's.
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("episode record appended to %s (campaign %q)\n", *out, key)
	}
	return nil
}
