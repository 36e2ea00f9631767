// Command robotack-characterize reproduces Fig. 5 of the paper: it
// drives a mixed-traffic world, runs the noisy detector against ground
// truth, and reports the misdetection-run and bbox-error distribution
// fits for pedestrians and vehicles. Long drives split into segments
// that run in parallel on an engine worker pool.
//
// Usage:
//
//	robotack-characterize -frames 9000   # the paper's 10-minute drive
//	robotack-characterize -workers 3
//	robotack-characterize -out fig5.json   # persist the characterization
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/results"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-characterize:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		frames  = flag.Int("frames", 9000, "frames to drive (paper: 10 min at 15 Hz)")
		seed    = flag.Int64("seed", 1, "seed")
		workers = flag.Int("workers", engine.DefaultWorkers(), "parallel segment workers")
		out     = flag.String("out", "", "write the characterization (distribution fits) as JSON")
		tel     obs.Flags
	)
	tel.RegisterLog(flag.CommandLine)
	flag.Parse()
	logger, _, err := tel.Start("characterize")
	if err != nil {
		return err
	}
	defer tel.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := engine.New(engine.WithWorkers(*workers), engine.WithContext(ctx))
	logger.Debug("characterization starting", "frames", *frames, "seed", *seed, "workers", eng.Workers())

	c, err := experiment.CharacterizeOn(eng, *frames, *seed)
	if err != nil {
		return err
	}
	fmt.Print(experiment.FormatFig5(c))
	if *out != "" {
		raw, err := json.MarshalIndent(c, "", "  ")
		if err != nil {
			return err
		}
		if err := results.WriteFileAtomic(*out, append(raw, '\n')); err != nil {
			return err
		}
		fmt.Printf("characterization written to %s\n", *out)
	}
	fmt.Println("\npaper reference values:")
	fmt.Println("  pedestrian: Exp(loc=1, lambda=0.717) p99=31.0; dx N(0.254, 2.010) dy N(0.186, 0.409)")
	fmt.Println("  vehicle:    Exp(loc=1, lambda=0.327) p99=59.4; dx N(0.023, 0.464) dy N(0.094, 0.586)")
	return nil
}
