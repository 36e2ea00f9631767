// Command robotack-train generates the safety hijacker's training data
// (forced attacks with predefined delta_inject and k, paper §IV-B),
// trains one neural oracle per attack vector and reports validation
// error. The weights are not saved: campaigns retrain their oracles
// deterministically from their seed. The forced-attack sweeps fan out
// across an engine worker pool; training stays deterministic in -seed
// for any -workers value.
//
// Usage:
//
//	robotack-train -workers 4
//	robotack-train -report training.json   # persist the training report
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
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/results"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-train:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed    = flag.Int64("seed", 9000, "base seed")
		epochs  = flag.Int("epochs", 60, "training epochs")
		report  = flag.String("report", "", "write the per-vector training report (samples, MSE/MAE) as JSON")
		workers = flag.Int("workers", engine.DefaultWorkers(), "parallel episode workers")
		tel     obs.Flags
	)
	tel.RegisterLog(flag.CommandLine)
	flag.Parse()
	logger, _, err := tel.Start("train")
	if err != nil {
		return err
	}
	defer tel.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	eng := engine.New(engine.WithWorkers(*workers), engine.WithContext(ctx))
	logger.Debug("oracle training starting", "seed", *seed, "epochs", *epochs, "workers", eng.Workers())

	cfg := nn.DefaultTrainConfig()
	cfg.Epochs = *epochs
	_, infos, err := experiment.TrainOraclesOn(eng, experiment.DefaultOracleSpecs(), *seed, cfg)
	if err != nil {
		return err
	}
	for _, info := range infos {
		fmt.Printf("%v: %d samples, train MSE %.2f, validation MSE %.2f, validation MAE %.2f m\n",
			info.Vector, info.Samples, info.Result.TrainMSE, info.Result.ValMSE, info.Result.ValMAE)
	}
	if *report != "" {
		type vectorReport struct {
			Vector   string  `json:"vector"`
			Samples  int     `json:"samples"`
			TrainMSE float64 `json:"train_mse"`
			ValMSE   float64 `json:"val_mse"`
			ValMAE   float64 `json:"val_mae_m"`
		}
		reports := make([]vectorReport, 0, len(infos))
		for _, info := range infos {
			reports = append(reports, vectorReport{
				Vector:   info.Vector.String(),
				Samples:  info.Samples,
				TrainMSE: info.Result.TrainMSE,
				ValMSE:   info.Result.ValMSE,
				ValMAE:   info.Result.ValMAE,
			})
		}
		raw, err := json.MarshalIndent(reports, "", "  ")
		if err != nil {
			return err
		}
		if err := results.WriteFileAtomic(*report, append(raw, '\n')); err != nil {
			return err
		}
		fmt.Printf("training report written to %s\n", *report)
	}
	fmt.Println("paper reference: predictions within ~1-1.5 m (pedestrians) and ~5 m (vehicles)")
	return nil
}
