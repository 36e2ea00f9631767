// Command robotack-search trains an adaptive attack policy: a
// (1+lambda) evolution strategy mutates the paper trigger's thresholds
// and injection geometry (internal/policy.Params) and scores each
// candidate by running smart-mode campaigns, exactly the way
// robotack-campaign scores the paper's trigger.
//
// The search is deterministic end to end: every mutation and every
// episode seed derives from (-seed, generation, candidate), so the same
// invocation reproduces the same artifact and the same search log byte
// for byte, at any -workers value. With -store, candidate evaluations
// persist as they finish and an interrupted search resumes
// mid-candidate (Ctrl-C is safe).
//
// Usage:
//
//	robotack-search -out trained.json                 # search DS-1..DS-4, write the artifact
//	robotack-search -scenarios DS-1,DS-3 -runs 20     # narrower, heavier battery
//	robotack-search -generations 12 -pop 10 -sigma 0.2
//	robotack-search -store search.jsonl -out trained.json  # resumable
//	robotack-search -log search-log.jsonl             # byte-reproducible JSONL trace
//	robotack-campaign -policy trained.json            # then: evaluate vs the paper trigger
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/policy"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-search:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenarios   = flag.String("scenarios", "DS-1,DS-2,DS-3,DS-4", "comma-separated battery of smart-mode scenarios to score candidates on")
		runs        = flag.Int("runs", 12, "episodes per battery scenario per candidate")
		generations = flag.Int("generations", 8, "search generations")
		pop         = flag.Int("pop", 8, "candidates per generation (incl. the re-evaluated elite)")
		sigma       = flag.Float64("sigma", 0.15, "initial mutation scale (fraction of each parameter's range)")
		seed        = flag.Int64("seed", 1000, "base seed; every mutation and episode seed derives from it")
		train       = flag.Bool("train", false, "train the safety-hijacker NNs first (else analytic oracle)")
		workers     = flag.Int("workers", engine.DefaultWorkers(), "parallel episode workers")
		out         = flag.String("out", "trained-policy.json", "write the best candidate's policy artifact here")
		storePath   = flag.String("store", "", "persist candidate evaluations to this JSONL store and resume them on re-run")
		logPath     = flag.String("log", "", "write the byte-reproducible JSONL search log here")
		ftdcPath    = flag.String("ftdc", "", "append periodic binary metric snapshots to this file (decode with robotack-ftdc)")
		ftdcEvery   = flag.Duration("ftdc-interval", time.Second, "FTDC snapshot interval")
		logCfg      obs.LogConfig
	)
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logCfg.Logger(os.Stderr)
	if err != nil {
		return err
	}

	battery, err := parseBattery(*scenarios)
	if err != nil {
		return err
	}

	if *ftdcPath != "" {
		capture, err := obs.StartCapture(obs.Default, *ftdcPath, *ftdcEvery)
		if err != nil {
			return fmt.Errorf("ftdc capture: %w", err)
		}
		defer func() {
			if err := capture.Stop(); err != nil {
				logger.Warn("ftdc capture stop", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	eng := engine.New(
		engine.WithWorkers(*workers),
		engine.WithContext(ctx),
	)
	logger.Info("engine ready", "workers", eng.Workers())

	cfg := policy.TrainerConfig{
		Battery:     battery,
		Runs:        *runs,
		Generations: *generations,
		Population:  *pop,
		Sigma:       *sigma,
		BaseSeed:    *seed,
		Progress: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	}

	if *train {
		logger.Info("training safety-hijacker oracles (paper §IV-B)")
		oracles, _, err := experiment.TrainOraclesOn(eng,
			experiment.DefaultOracleSpecs(), *seed+50_000, nn.DefaultTrainConfig())
		if err != nil {
			return err
		}
		cfg.Oracles = oracles
	}

	if *storePath != "" {
		store, err := results.Open(*storePath)
		if err != nil {
			return err
		}
		defer store.Close()
		cfg.Store = store
		logger.Info("evaluation store open", "store", *storePath, "resumable", true)
	}
	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.Log = f
	}

	res, trainErr := policy.Train(eng, cfg)
	if trainErr != nil && res.Best.Runs == 0 {
		return trainErr
	}
	if trainErr != nil {
		// Interrupted mid-search: keep the best candidate found so far
		// (re-running with -store picks up where this left off).
		logger.Warn("search stopped early", "err", trainErr)
	}

	fmt.Printf("best: gen %d cand %d  fitness %.4f  (EB %d/%d, crash %d)\n",
		res.Best.Gen, res.Best.Index, res.Best.Fitness, res.Best.EBs, res.Best.Runs, res.Best.Crashes)
	if err := res.Artifact.Save(*out); err != nil {
		return err
	}
	fmt.Printf("policy artifact: %s  (evaluate with: robotack-campaign -policy %s)\n", *out, *out)
	return nil
}

// parseBattery builds the smart-mode evaluation battery from a
// comma-separated scenario list, with the unknown-scenario error style
// of the rest of the tooling.
func parseBattery(list string) ([]experiment.Campaign, error) {
	var battery []experiment.Campaign
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, ok := scenegen.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown scenario %q (have %v)", name, scenegen.Names())
		}
		battery = append(battery, experiment.Campaign{
			Name:          name + "-search",
			Scenario:      scenario.Named(name),
			Mode:          core.ModeSmart,
			ExpectCrashes: true,
		})
	}
	if len(battery) == 0 {
		return nil, fmt.Errorf("-scenarios is empty")
	}
	return battery, nil
}
