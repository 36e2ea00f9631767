// Command robotack-campaign runs the paper's evaluation campaigns and
// regenerates Table II and Figs. 6-8 (plus the §VI headline summary).
// Episodes fan out across an engine worker pool; results are
// bit-identical for any -workers value, and Ctrl-C cancels the sweep.
//
// Besides the paper's Table II sweep over DS-1..DS-5, the campaign can
// evaluate a declarative JSON scenario spec or the procedural scenario
// generator: golden, smart-attack and random-baseline campaigns run on
// the custom source instead.
//
// With -out, every episode streams into a results store as it
// completes — a JSONL file or a segmented segstore directory,
// autodetected from the path; -resume folds already-persisted episodes
// back into the aggregates (bit-identically) instead of re-running
// them. robotack-store diff compares two stores' campaign aggregates
// (the two sides may use different backends).
//
// Usage:
//
//	robotack-campaign -runs 150            # paper-scale Table II + figures
//	robotack-campaign -runs 30 -train=false  # quicker, analytic oracle
//	robotack-campaign -workers 4           # cap the worker pool
//	robotack-campaign -scenario-file my_world.json -runs 50
//	robotack-campaign -generate -runs 100  # scenario-diversity sweep
//	robotack-campaign -runs 100 -out sweep.jsonl       # persist records
//	robotack-campaign -runs 100 -out sweep.jsonl -resume  # pick up an interrupted sweep
//	robotack-campaign -policy trained.json  # evaluate a searched policy next to the paper trigger
//	robotack-campaign -list-scenarios
//	robotack-campaign -list-policies
//	robotack-campaign -runs 40 -cpuprofile cpu.prof -memprofile mem.prof  # pprof the hot path
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/policy"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/segstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "robotack-campaign:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		runs         = flag.Int("runs", 40, "episodes per campaign (paper: 101-185)")
		seed         = flag.Int64("seed", 1000, "base seed")
		train        = flag.Bool("train", true, "train the safety-hijacker NNs first (else analytic oracle)")
		workers      = flag.Int("workers", engine.DefaultWorkers(), "parallel episode workers")
		scenarioFile = flag.String("scenario-file", "", "evaluate a JSON scenario spec instead of Table II")
		generate     = flag.Bool("generate", false, "evaluate procedurally generated scenarios instead of Table II")
		list         = flag.Bool("list-scenarios", false, "list the built-in scenario catalog and exit")
		policyFile   = flag.String("policy", "", "evaluate this policy artifact's trigger side-by-side with the paper trigger")
		listPolicies = flag.Bool("list-policies", false, "list known policy artifact kinds and exit")
		out          = flag.String("out", "", "append episode and campaign records to this results store (JSONL file or segstore directory, autodetected)")
		resume       = flag.Bool("resume", false, "fold episodes already persisted in -out back into the aggregates instead of re-running them")
		tel          obs.Flags
	)
	tel.RegisterLog(flag.CommandLine)
	tel.RegisterFTDC(flag.CommandLine)
	tel.RegisterTrace(flag.CommandLine)
	tel.RegisterProfiles(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, name := range scenegen.Names() {
			fmt.Println(name)
		}
		return nil
	}
	if *listPolicies {
		for _, k := range policy.Kinds() {
			fmt.Printf("%-8s %s\n", k.Kind, k.Desc)
		}
		return nil
	}

	if *resume && *out == "" {
		return fmt.Errorf("-resume needs -out: the store holding the interrupted sweep")
	}

	_, tracer, err := tel.Start("campaign")
	if err != nil {
		return err
	}
	defer tel.Stop()

	var pol core.TriggerPolicy
	var polLabel string
	if *policyFile != "" {
		art, err := policy.Load(*policyFile)
		if err != nil {
			return err
		}
		pol, err = art.Build()
		if err != nil {
			return err
		}
		polLabel = art.Label()
		fmt.Printf("policy: %s (kind %s, from %s)\n", polLabel, art.Kind, *policyFile)
	}

	var opts []experiment.RunOption
	if *out != "" {
		store, openErr := segstore.OpenAny(*out)
		if openErr != nil {
			return openErr
		}
		// Close syncs each active segment and writes its index, so its
		// error is the sweep's (run's named result).
		defer func() {
			if cerr := store.Close(); err == nil {
				err = cerr
			}
		}()
		opts = append(opts, experiment.WithSink(store))
		if *resume {
			opts = append(opts, experiment.WithResume(store))
		}
		fmt.Printf("results store: %s (resume=%v)\n", *out, *resume)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Local tracing: one root span covers the sweep; engine-job spans
	// nest under it via the engine's context, and each episode annotates
	// its job's span with its frame-stage breakdown.
	if tracer != nil {
		tid := trace.DeriveTraceID("robotack-campaign", *seed)
		root := tracer.StartSpan(trace.SpanContext{Tracer: tracer, TraceID: tid},
			"run", trace.DeriveSpanID(tid, 0, trace.StreamRun))
		root.SetAttr("campaign", "robotack-campaign")
		ctx = root.Context(ctx)
		defer root.Finish()
	}

	eng := engine.New(
		engine.WithWorkers(*workers),
		engine.WithContext(ctx),
		engine.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r  %d/%d episodes", done, total)
			if done == total {
				fmt.Fprint(os.Stderr, "\n")
			}
		}),
	)
	fmt.Printf("engine: %d workers\n", eng.Workers())

	var custom scenario.Source
	switch {
	case *scenarioFile != "":
		spec, err := scenegen.LoadFile(*scenarioFile)
		if err != nil {
			return err
		}
		custom = scenario.FromSpec(spec)
	case *generate:
		custom = scenario.FromGenerator(scenegen.NewGenerator(scenegen.DefaultSpace()))
	}

	var oracles map[core.Vector]core.Oracle
	if *train {
		fmt.Println("training safety-hijacker oracles (paper §IV-B)...")
		var infos []experiment.TrainedOracle
		var err error
		oracles, infos, err = experiment.TrainOraclesOn(eng,
			experiment.DefaultOracleSpecs(), *seed+50_000, nn.DefaultTrainConfig())
		if err != nil {
			return err
		}
		for _, info := range infos {
			fmt.Printf("  %v: %d samples, validation MAE %.2f m\n",
				info.Vector, info.Samples, info.Result.ValMAE)
		}
	}

	if custom != nil {
		return runCustom(eng, custom, *runs, *seed, oracles, pol, polLabel, opts)
	}

	campaigns := experiment.TableIICampaigns()
	withSH := make([]experiment.CampaignResult, 0, len(campaigns))
	noSH := make([]experiment.CampaignResult, 0, len(campaigns))
	var withPolicy []experiment.CampaignResult
	for _, c := range campaigns {
		res, err := experiment.RunCampaignOn(eng, c, *runs, *seed, oracles, opts...)
		if err != nil {
			return err
		}
		withSH = append(withSH, res)
		fmt.Printf("campaign %-24s done (%d runs)\n", c.Name, res.Runs)
		if c.Mode == core.ModeSmart {
			nres, err := experiment.RunCampaignOn(eng, c.WithoutSH(), *runs, *seed, oracles, opts...)
			if err != nil {
				return err
			}
			noSH = append(noSH, nres)
			if pol != nil {
				pres, err := experiment.RunCampaignOn(eng, c.WithPolicy(polLabel, pol), *runs, *seed, oracles, opts...)
				if err != nil {
					return err
				}
				withPolicy = append(withPolicy, pres)
				fmt.Printf("campaign %-24s done (%d runs)\n", c.Name+"-"+polLabel, pres.Runs)
			}
		}
	}

	withRecs, noRecs := experiment.Records(withSH), experiment.Records(noSH)

	fmt.Println("\n=== Table II ===")
	fmt.Print(experiment.FormatTableII(withRecs))

	if pol != nil {
		// Side-by-side evaluation: the same smart campaigns and seeds,
		// with the artifact's trigger in place of the paper's.
		fmt.Printf("\n=== Table II — policy %q (same seeds, smart campaigns) ===\n", polLabel)
		fmt.Print(experiment.FormatTableII(experiment.Records(withPolicy)))
	}

	fmt.Println("\n=== Fig. 6 ===")
	fmt.Print(experiment.FormatFig6(experiment.Fig6Rows(withRecs[:len(noRecs)], noRecs)))

	fmt.Println("\n=== Fig. 7 ===")
	fmt.Print(experiment.FormatFig7(withRecs))

	smart, random := experiment.SplitByMode(withRecs)
	fmt.Println("\n=== Fig. 8 ===")
	fmt.Print(experiment.FormatFig8(experiment.Fig8Bins(smart, 10, 6.7), smart))

	fmt.Println("\n=== Headline summary (paper §VI) ===")
	fmt.Print(experiment.FormatSummary(experiment.Summarize(smart), experiment.Summarize(random)))
	return nil
}

// runCustom evaluates one scenario source (a spec file or the
// procedural generator): an attack-free golden baseline, the smart
// malware and the random baseline — plus, with -policy, the artifact's
// trigger — each over the same seeds.
func runCustom(eng *engine.Engine, src scenario.Source, runs int, seed int64, oracles map[core.Vector]core.Oracle, pol core.TriggerPolicy, polLabel string, opts []experiment.RunOption) error {
	golden, err := experiment.RunCampaignOn(eng, experiment.Golden(src), runs, seed, nil, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("golden   %-20s EB %d/%d  crash %d/%d\n",
		src.Label(), golden.EBs, golden.Runs, golden.Crashes, golden.Runs)

	campaigns := []experiment.Campaign{
		{Name: src.Label() + "-Smart-R", Scenario: src, Mode: core.ModeSmart, ExpectCrashes: true},
		{Name: src.Label() + "-Baseline-Random", Scenario: src, Mode: core.ModeRandom, ExpectCrashes: true},
	}
	if pol != nil {
		campaigns = append(campaigns, campaigns[0].WithPolicy(polLabel, pol))
	}
	res := make([]experiment.CampaignResult, 0, len(campaigns))
	for _, c := range campaigns {
		r, err := experiment.RunCampaignOn(eng, c, runs, seed, oracles, opts...)
		if err != nil {
			return err
		}
		res = append(res, r)
		fmt.Printf("campaign %-24s done (%d runs)\n", c.Name, r.Runs)
	}

	fmt.Println("\n=== Custom-scenario results ===")
	fmt.Print(experiment.FormatTableII(experiment.Records(res)))
	return nil
}
