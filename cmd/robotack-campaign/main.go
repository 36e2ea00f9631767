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
// them, and -compare diffs two stores' campaign aggregates (the two
// sides may use different backends).
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
//	robotack-campaign -out new.jsonl -compare old.jsonl   # diff two stores and exit
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
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/policy"
	"github.com/robotack/robotack/internal/results"
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

func run() error {
	var (
		runs         = flag.Int("runs", 40, "episodes per campaign (paper: 101-185)")
		seed         = flag.Int64("seed", 1000, "base seed")
		train        = flag.Bool("train", true, "train the safety-hijacker NNs first (else analytic oracle)")
		workers      = flag.Int("workers", engine.DefaultWorkers(), "parallel episode workers")
		scenarioFile = flag.String("scenario-file", "", "evaluate a JSON scenario spec instead of Table II")
		generate     = flag.Bool("generate", false, "evaluate procedurally generated scenarios instead of Table II")
		list         = flag.Bool("list-scenarios", false, "list registered scenario specs and exit")
		policyFile   = flag.String("policy", "", "evaluate this policy artifact's trigger side-by-side with the paper trigger")
		listPolicies = flag.Bool("list-policies", false, "list known policy artifact kinds and exit")
		out          = flag.String("out", "", "append episode and campaign records to this results store (JSONL file or segstore directory, autodetected)")
		resume       = flag.Bool("resume", false, "fold episodes already persisted in -out back into the aggregates instead of re-running them")
		compare      = flag.String("compare", "", "diff this store against -out and exit (no campaigns run)")
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile (after the sweep) to this file")
		ftdcPath     = flag.String("ftdc", "", "append periodic binary metric snapshots to this file (decode with robotack-ftdc)")
		ftdcEvery    = flag.Duration("ftdc-interval", time.Second, "FTDC snapshot interval")
		traceDir     = flag.String("trace", "", "directory for span-trace segments (inspect with robotack-trace); empty: tracing off")
		traceN       = flag.Int("trace-sample", 0, "episode-span sampling, 1-in-N (0: default 1-in-16)")
		logCfg       obs.LogConfig
	)
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	logger, err := logCfg.Logger(os.Stderr)
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

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				logger.Error("-memprofile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the end-of-sweep live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				logger.Error("-memprofile", "err", err)
			}
		}()
	}

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

	if *compare != "" {
		if *out == "" {
			return fmt.Errorf("-compare needs -out: the two stores to diff")
		}
		old, err := segstore.LoadAny(*compare)
		if err != nil {
			return err
		}
		cur, err := segstore.LoadAny(*out)
		if err != nil {
			return err
		}
		diffs, err := results.Diff(old, cur)
		if err != nil {
			return err
		}
		fmt.Printf("diff %s → %s\n", *compare, *out)
		fmt.Print(results.FormatDiff(diffs))
		return nil
	}
	if *resume && *out == "" {
		return fmt.Errorf("-resume needs -out: the store holding the interrupted sweep")
	}

	var opts []experiment.RunOption
	if *out != "" {
		store, err := segstore.OpenAny(*out)
		if err != nil {
			return err
		}
		defer store.Close()
		opts = append(opts, experiment.WithSink(store))
		if *resume {
			opts = append(opts, experiment.WithResume(store))
		}
		fmt.Printf("results store: %s (resume=%v)\n", *out, *resume)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Local tracing: one root span covers the sweep; engine-job and
	// sampled episode spans (with frame-stage breakdowns) nest under it
	// via the engine's context.
	if *traceDir != "" {
		sink, err := trace.NewFileSink(*traceDir, trace.DefaultCapBytes)
		if err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
		tr := trace.New("campaign", sink, trace.WithSampleEvery(*traceN))
		tid := trace.DeriveTraceID("robotack-campaign", *seed)
		root := tr.StartSpan(trace.SpanContext{Tracer: tr, TraceID: tid},
			"run", trace.DeriveSpanID(tid, 0, trace.StreamRun))
		root.SetAttr("campaign", "robotack-campaign")
		ctx = root.Context(ctx)
		defer func() {
			root.Finish()
			if err := tr.Close(); err != nil {
				logger.Warn("trace sink close", "err", err)
			}
		}()
		fmt.Printf("trace dir: %s\n", *traceDir)
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

	fmt.Println("\n=== Fig. 8 ===")
	smart := withRecs[:len(withRecs)-1] // exclude the random baseline
	fmt.Print(experiment.FormatFig8(experiment.Fig8Bins(smart, 10, 6.7), smart))

	fmt.Println("\n=== Headline summary (paper §VI) ===")
	fmt.Print(experiment.FormatSummary(
		experiment.Summarize(smart),
		experiment.Summarize(withRecs[len(withRecs)-1:])))
	return nil
}

// runCustom evaluates one scenario source (a spec file or the
// procedural generator): an attack-free golden baseline, the smart
// malware and the random baseline — plus, with -policy, the artifact's
// trigger — each over the same seeds.
func runCustom(eng *engine.Engine, src scenario.Source, runs int, seed int64, oracles map[core.Vector]core.Oracle, pol core.TriggerPolicy, polLabel string, opts []experiment.RunOption) error {
	golden, err := experiment.RunGoldenOn(eng, src, runs, seed, opts...)
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
