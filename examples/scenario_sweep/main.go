// Scenario sweep: procedurally generate a batch of driving scenarios
// from the default scenegen space, run every one through the engine
// twice — attack-free and with RoboTack on the camera link — and report
// emergency-braking / crash rates per traffic-density bucket.
//
// This is the scenario-diversity campaign the paper could not run on
// five hand-built worlds: each seed maps to one distinct generated
// world, the whole sweep is deterministic, and both variants of each
// scenario replay the same episode seed.
//
// Every episode also lands in a results store as a persistent record
// (pass -out sweep.jsonl to keep it on disk); the closing
// golden-vs-attack comparison is computed by reading the records back
// out of the store, exactly as a later analysis — or another code
// version's diff — would.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/scenegen"
	"github.com/robotack/robotack/internal/segstore"
	"github.com/robotack/robotack/internal/stats"
)

const (
	numScenarios = 60
	baseSeed     = 9000
)

type episode struct {
	spec     *scenegen.Spec
	seed     int64
	attacked bool
}

type outcome struct {
	actors   int
	attacked bool
	res      experiment.RunResult
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() (err error) {
	outPath := flag.String("out", "", "persist episode/campaign records to this results store (JSONL file or segstore directory, autodetected)")
	flag.Parse()

	gen := scenegen.NewGenerator(scenegen.DefaultSpace())
	ar := scenegen.NewArena() // holds each spec's overlap-check world

	// One generated world per seed; each runs golden and attacked.
	var eps []episode
	for i := 0; i < numScenarios; i++ {
		seed := int64(baseSeed + i)
		spec, err := gen.Generate(ar, stats.NewRNG(seed), fmt.Sprintf("gen-%03d", i))
		if err != nil {
			return err
		}
		eps = append(eps,
			episode{spec: spec, seed: seed, attacked: false},
			episode{spec: spec, seed: seed, attacked: true})
	}

	eng := engine.New()
	outs, err := engine.Map(eng, baseSeed, eps,
		func(ctx context.Context, _ int64, ep episode) (outcome, error) {
			setup := experiment.AttackSetup{}
			if ep.attacked {
				setup.Mode = core.ModeSmart
			}
			res, err := experiment.RunCtx(ctx, experiment.RunConfig{
				Source: scenario.FromSpec(ep.spec),
				Seed:   ep.seed,
				Attack: setup,
			})
			if err != nil {
				return outcome{}, err
			}
			return outcome{actors: len(ep.spec.Actors), attacked: ep.attacked, res: res}, nil
		})
	if err != nil {
		return err
	}

	// Bucket by initial traffic density (actor count incl. the target).
	type bucket struct {
		label                  string
		n                      int
		goldenEB, goldenCrash  int
		attEB, attCrash, fired int
	}
	buckets := []*bucket{
		{label: "sparse (1-2 actors)"},
		{label: "medium (3-4 actors)"},
		{label: "dense  (5+ actors)"},
	}
	pick := func(actors int) *bucket {
		switch {
		case actors <= 2:
			return buckets[0]
		case actors <= 4:
			return buckets[1]
		default:
			return buckets[2]
		}
	}
	for _, o := range outs {
		b := pick(o.actors)
		if o.attacked {
			if o.res.EB {
				b.attEB++
			}
			if o.res.Crashed {
				b.attCrash++
			}
			if o.res.Launched {
				b.fired++
			}
		} else {
			b.n++
			if o.res.EB {
				b.goldenEB++
			}
			if o.res.Crashed {
				b.goldenCrash++
			}
		}
	}

	// Persist every episode as a record: the sweep's two campaigns
	// become durable artifacts a later analysis (or robotack-serve, or
	// a cross-version diff) can consume without re-simulating.
	var store results.Store = results.NewMemStore()
	if *outPath != "" {
		fs, openErr := segstore.OpenAny(*outPath)
		if openErr != nil {
			return openErr
		}
		// Close syncs each active segment and writes its index, so its
		// error is the sweep's (run's named result).
		defer func() {
			if cerr := fs.Close(); err == nil {
				err = cerr
			}
		}()
		store = fs
	}
	campaignKey := func(attacked bool) (string, core.Mode) {
		if attacked {
			return "sweep-smart", core.ModeSmart
		}
		return "sweep-golden", 0
	}
	for j, o := range outs {
		key, mode := campaignKey(o.attacked)
		ep := experiment.RecordEpisode(key, j/2, eps[j].seed, eps[j].spec.Name, mode, true, o.res)
		if err := store.Append(ep); err != nil {
			return err
		}
	}
	for _, attacked := range []bool{false, true} {
		key, mode := campaignKey(attacked)
		stored, err := store.Episodes(key)
		if err != nil {
			return err
		}
		rec := results.Aggregate(results.NewCampaign(key, "generated", mode, true, baseSeed), stored)
		if err := store.PutCampaign(rec); err != nil {
			return err
		}
	}

	fmt.Printf("scenario sweep: %d generated scenarios x {golden, smart attack}\n\n", numScenarios)
	fmt.Printf("%-22s %9s %12s %12s %12s %12s %9s\n",
		"density", "scenarios", "golden EB", "golden crash", "attack EB", "attack crash", "launched")
	pct := func(k, n int) string {
		if n == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(k)/float64(n))
	}
	for _, b := range buckets {
		fmt.Printf("%-22s %9d %12s %12s %12s %12s %9s\n",
			b.label, b.n,
			pct(b.goldenEB, b.n), pct(b.goldenCrash, b.n),
			pct(b.attEB, b.n), pct(b.attCrash, b.n), pct(b.fired, b.n))
	}

	// The headline attack effect, computed purely from stored records.
	recs, err := store.Campaigns()
	if err != nil || len(recs) != 2 {
		return fmt.Errorf("stored campaigns: %v (%d records)", err, len(recs))
	}
	d := results.DiffRecords("golden → smart", &recs[0], &recs[1])
	fmt.Printf("\nfrom the results store (%d stored campaigns):\n", len(recs))
	fmt.Printf("  attack moved EB rate %+.0f%% and crash rate %+.0f%% across %d generated worlds\n",
		100*d.EBRateDelta, 100*d.CrashRateDelta, numScenarios)
	if *outPath != "" {
		fmt.Printf("  records saved to %s — try: robotack-serve -store %s\n", *outPath, *outPath)
	}
	return nil
}
