package policy

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/stats"
)

// Trainer instrumentation: progress of a running search. Observational
// only — fitness, seeds and the JSONL search log stay byte-identical
// with metrics on or off.
var (
	searchCandidates = obs.NewCounter("robotack_search_candidates_total",
		"Policy-search candidate evaluations completed.")
	searchGenerations = obs.NewCounter("robotack_search_generations_total",
		"Policy-search generations completed.")
	searchBestFitness = obs.NewGauge("robotack_search_best_fitness",
		"Fitness of the current search elite.")
)

// TrainerConfig shapes a policy search: the evaluation battery, the
// generational budget, and the determinism anchors. Every stochastic
// choice derives from BaseSeed: a candidate's mutation from
// (generation, candidate), and the episode seeds from the generation
// alone, so a generation's candidates are scored on the same episodes.
// A search run is byte-reproducible: the same config produces the same
// artifact and the same log, candidate by candidate.
type TrainerConfig struct {
	// Battery is the evaluation battery: smart-mode campaigns the
	// candidates are scored on. The trainer overrides each campaign's
	// Policy per candidate and its record name per (gen, candidate).
	Battery []experiment.Campaign
	// Runs is the episode count per battery campaign per candidate.
	Runs int
	// Generations and Population bound the search (G generations of
	// P candidates; candidate 0 of each generation re-evaluates the
	// elite on that generation's seeds, keeping comparisons fair).
	Generations int
	Population  int
	// Sigma is the initial mutation scale as a fraction of each
	// parameter bound's range (default 0.15); sigmaDecay multiplies
	// it per generation.
	Sigma float64
	// BaseSeed anchors every derived seed.
	BaseSeed int64
	// Oracles are the trained safety-hijacker oracles candidates
	// consult (nil: analytic).
	Oracles map[core.Vector]core.Oracle
	// Store, when set, persists every candidate evaluation's episodes
	// and aggregates (keyed search-gGG-cCC-<campaign>) and resumes
	// them on a re-run: an interrupted search picks up mid-candidate
	// with bit-identical aggregates, like any resumed campaign.
	Store results.Store
	// Log, when set, receives the JSONL search log: one line per
	// candidate evaluation plus one per generation's elite selection.
	// The bytes are reproducible — no timestamps, no durations.
	Log io.Writer
	// Progress, when set, receives human-readable progress lines.
	Progress func(format string, args ...any)
}

func (cfg *TrainerConfig) withDefaults() TrainerConfig {
	out := *cfg
	if out.Runs <= 0 {
		out.Runs = 12
	}
	if out.Generations <= 0 {
		out.Generations = 8
	}
	if out.Population <= 0 {
		out.Population = 8
	}
	if out.Sigma <= 0 {
		out.Sigma = 0.15
	}
	return out
}

// Search tuning.
const (
	// sigmaDecay multiplies the mutation scale per generation.
	sigmaDecay float64 = 0.9
	// crashWeight weights crashes against emergency brakes in the
	// fitness (the paper's headline metric is accidents).
	crashWeight float64 = 2
)

// Candidate is one evaluated point of the search space.
type Candidate struct {
	Gen    int                       `json:"gen"`
	Index  int                       `json:"cand"`
	Seed   int64                     `json:"seed"`
	Params core.SafetyHijackerConfig `json:"params"`

	Runs     int     `json:"runs"`
	Launched int     `json:"launched"`
	EBs      int     `json:"ebs"`
	Crashes  int     `json:"crashes"`
	Fitness  float64 `json:"fitness"`
}

// SearchResult is a finished (or interrupted) search.
type SearchResult struct {
	// Best is the elite candidate after the last completed selection.
	Best Candidate
	// Artifact is Best packaged for persistence and evaluation.
	Artifact Artifact
	// Evaluated counts completed candidate evaluations.
	Evaluated int
}

// seedIndex folds (gen, cand, stream) into one derivation index.
// Population and generation counts stay far below the 2^16 packing
// limit for any practical search.
func seedIndex(gen, cand, stream int) int {
	return (gen<<17 | cand<<1 | stream)
}

// EvalSeed is the campaign base seed of generation gen: every episode
// seed of every candidate's evaluation in that generation derives from
// it, so the candidates compete on the same episodes and re-running any
// candidate reproduces its score exactly.
func EvalSeed(baseSeed int64, gen int) int64 {
	return engine.SplitMixSeeds(baseSeed, seedIndex(gen, 0, 0))
}

// mutationSeed drives candidate (gen, cand)'s parameter draw.
func mutationSeed(baseSeed int64, gen, cand int) int64 {
	return engine.SplitMixSeeds(baseSeed, seedIndex(gen, cand, 1))
}

// RecordName keys candidate (gen, cand)'s records for one battery
// campaign in the search store.
func RecordName(gen, cand int, campaign string) string {
	return fmt.Sprintf("search-g%02d-c%02d-%s", gen, cand, campaign)
}

// Train searches policy parameters with a (1+lambda) evolution
// strategy: each generation re-evaluates the elite (candidate 0) and
// Population-1 Gaussian mutations of it on that generation's seeds,
// then keeps the fittest. Generation 0's elite is the default
// core.SafetyHijackerConfig — the paper's trigger — so the search
// starts from the reproduction's behavior and every later elite beat
// it on like-for-like seeds.
//
// Candidate evaluations run on eng (worker pool, cancellation,
// per-episode progress); a cancelled search returns the best candidate
// selected so far along with the context error.
func Train(eng *engine.Engine, cfg TrainerConfig) (SearchResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Battery) == 0 {
		return SearchResult{}, errors.New("policy: trainer needs at least one battery campaign")
	}
	for _, c := range cfg.Battery {
		if c.Mode != core.ModeSmart {
			return SearchResult{}, fmt.Errorf("policy: battery campaign %s has mode %v; the trainer searches smart-mode triggers", c.Name, c.Mode)
		}
	}

	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	var res SearchResult
	elite := Candidate{Gen: -1, Index: -1, Params: core.DefaultSafetyHijackerConfig(), Fitness: math.Inf(-1)}

	for gen := 0; gen < cfg.Generations; gen++ {
		sigma := cfg.Sigma * math.Pow(sigmaDecay, float64(gen))
		best := Candidate{Fitness: math.Inf(-1)}
		for cand := 0; cand < cfg.Population; cand++ {
			p := elite.Params
			if cand > 0 {
				p = mutate(elite.Params, sigma, stats.NewRNG(mutationSeed(cfg.BaseSeed, gen, cand)))
			}
			c, err := evaluate(eng, cfg, p, gen, cand)
			if err != nil {
				if res.Best.Runs > 0 {
					res.Artifact = artifactFor(cfg, res.Best)
				}
				return res, fmt.Errorf("policy: gen %d cand %d: %w", gen, cand, err)
			}
			res.Evaluated++
			searchCandidates.Add(1)
			if err := logLine(cfg.Log, c); err != nil {
				return res, err
			}
			progress("gen %d cand %d fitness %.4f (EB %d/%d, crash %d)", gen, cand, c.Fitness, c.EBs, c.Runs, c.Crashes)
			if c.Fitness > best.Fitness {
				best = c
			}
		}
		elite = best
		res.Best = best
		searchGenerations.Add(1)
		searchBestFitness.Set(best.Fitness)
		if err := logElite(cfg.Log, gen, best); err != nil {
			return res, err
		}
		progress("gen %d elite: cand %d fitness %.4f", gen, best.Index, best.Fitness)
	}
	res.Artifact = artifactFor(cfg, res.Best)
	return res, nil
}

// evaluate scores one parameter vector: the battery runs with the
// candidate policy under the generation's seeds (EvalSeed), and
// the fitness is the EB rate plus crashWeight times the crash rate,
// pooled across the battery. Persisted evaluations resume.
func evaluate(eng *engine.Engine, cfg TrainerConfig, p core.SafetyHijackerConfig, gen, cand int) (Candidate, error) {
	seed := EvalSeed(cfg.BaseSeed, gen)
	out := Candidate{Gen: gen, Index: cand, Seed: seed, Params: p}
	var opts []experiment.RunOption
	if cfg.Store != nil {
		opts = append(opts, experiment.WithSink(cfg.Store), experiment.WithResume(cfg.Store))
	}
	for _, c := range cfg.Battery {
		c.Name = RecordName(gen, cand, c.Name)
		c.Policy = p
		r, err := experiment.RunCampaignOn(eng, c, cfg.Runs, seed, cfg.Oracles, opts...)
		if err != nil {
			return out, err
		}
		out.Runs += r.Runs
		out.Launched += r.Launched
		out.EBs += r.EBs
		out.Crashes += r.Crashes
	}
	if out.Runs > 0 {
		out.Fitness = (float64(out.EBs) + crashWeight*float64(out.Crashes)) / float64(out.Runs)
	}
	return out, nil
}

func artifactFor(cfg TrainerConfig, best Candidate) Artifact {
	names := make([]string, len(cfg.Battery))
	for i, c := range cfg.Battery {
		names[i] = c.Name
	}
	return Artifact{
		V:           Version,
		Kind:        KindParam,
		Name:        "trained",
		Params:      &best.Params,
		Seed:        cfg.BaseSeed,
		Generations: cfg.Generations,
		Fitness:     best.Fitness,
		TrainedOn:   names,
	}
}

func logLine(w io.Writer, c Candidate) error {
	if w == nil {
		return nil
	}
	raw, err := json.Marshal(c)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// eliteLine is the per-generation selection record in the search log.
type eliteLine struct {
	Gen     int                       `json:"gen"`
	Elite   int                       `json:"elite_cand"`
	Fitness float64                   `json:"fitness"`
	Params  core.SafetyHijackerConfig `json:"params"`
}

func logElite(w io.Writer, gen int, best Candidate) error {
	if w == nil {
		return nil
	}
	raw, err := json.Marshal(eliteLine{Gen: gen, Elite: best.Index, Fitness: best.Fitness, Params: best.Params})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
