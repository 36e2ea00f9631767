package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"time"

	"github.com/robotack/robotack/bench/stat"
	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
)

// table2State is one set-up of table2 or table2-nn.
type table2State struct {
	eng       *engine.Engine
	campaigns []experiment.Campaign
	// oracles are table2-nn's trained oracles; nil (analytic) for table2.
	oracles map[core.Vector]core.Oracle
}

// runTable2 runs the paper's Table II battery — the seven campaigns of
// experiment.TableIICampaigns, sizes.perCampaign episodes each, through
// experiment.RunCampaignOn on a two-worker engine — round after round
// until the measured time is up. withNN first trains the three oracles
// the way robotack-train does and attacks with them. The oracles are the
// system under test, not its input: they always train at defaultSeed,
// so every run attacks with the same, committed oracles and -seed picks
// only the episodes.
//
// Rounds come in pairs that run the same seeds, so the second round of
// each pair must reproduce the first one's aggregates exactly. In a
// traced run the first round of each pair is traced and the second is
// not (alternating which comes first), which gives trace.overhead_frac
// on identical work.
func runTable2(b *benchRun, withNN bool) error {
	root := b.rec.root(b.workload, 0)
	defer root.end()
	var first []oracleOutcome
	st, teardown, err := setupRepeated(b, func() (*table2State, func(), error) {
		s := &table2State{eng: engine.New(engine.WithWorkers(engineWorkers)), campaigns: experiment.TableIICampaigns()}
		if withNN {
			tr, err := train(b, s.eng, defaultSeed, root)
			if err != nil {
				return nil, nil, err
			}
			s.oracles = tr.oracles
			got := outcomes(tr.infos)
			b.check(first == nil || reflect.DeepEqual(got, first), "oracle training differs between set-ups: %v vs %v", got, first)
			first = got
		}
		warm := engine.SplitMixSeeds(b.seed, -1)
		for _, c := range s.campaigns {
			if _, err := experiment.RunCampaignOn(s.eng, c, b.sizes.warmPerCampaign, warm, s.oracles); err != nil {
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return s, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()
	if withNN {
		b.outputs.Oracles = map[string][]oracleOutcome{b.workload: first}
		if b.expect != nil {
			b.check(reflect.DeepEqual(first, b.expect.Oracles[b.workload]),
				"trained oracles %v differ from the committed %v", first, b.expect.Oracles[b.workload])
		}
	}

	tt := &table2Trace{timer: &oracleTimer{rec: b.rec}}
	var timed map[core.Vector]core.Oracle
	if b.traced() {
		src := st.oracles
		if src == nil {
			src = analyticOracles()
		}
		timed = tt.timer.wrap(src)
	}
	var (
		rounds                   [][]results.CampaignRecord
		allMS, tracedMS, plainMS []float64
		mem                      memDelta
	)
	perRound := len(st.campaigns) * b.sizes.perCampaign
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < b.seconds; pair++ {
		base := engine.SplitMixSeeds(b.seed, pair)
		for half := 0; half < 2; half++ {
			r := len(rounds)
			m0, t0 := readMem(), time.Now()
			var recs []results.CampaignRecord
			// Alternate which round of a pair is traced, so neither
			// side of the overhead comparison always runs second.
			traced := b.traced() && half == pair%2
			if traced {
				recs = st.tracedRound(b, tt, r, base, timed, root)
			} else {
				recs = st.round(b, r, base)
			}
			ms := float64(time.Since(t0)) / 1e6
			rounds = append(rounds, recs)
			allMS = append(allMS, ms)
			if traced {
				tracedMS = append(tracedMS, ms)
				continue
			}
			mem.add(m0, readMem())
			plainMS = append(plainMS, ms)
		}
	}
	b.setOps(start, allMS, len(allMS)*perRound)
	b.setProc(mem, len(plainMS)*perRound)

	verify := root.child("verify", 0)
	st.verify(b, rounds)
	verify.end()
	if b.traced() {
		tt.report(b)
		b.set("trace.overhead_frac", ratio(stat.Median(tracedMS), stat.Median(plainMS))-1)
		_, _, err := b.replayAll(tt.samples, root)
		return err
	}
	return nil
}

func opID(round int, c experiment.Campaign) string {
	return fmt.Sprintf("round %d %s", round, c.Name)
}

// round runs one untraced Table II round through the library's campaign
// path.
func (s *table2State) round(b *benchRun, r int, base int64) []results.CampaignRecord {
	recs := make([]results.CampaignRecord, len(s.campaigns))
	for i, c := range s.campaigns {
		b.op()
		res, err := experiment.RunCampaignOn(s.eng, c, b.sizes.perCampaign, base, s.oracles)
		switch {
		case err != nil:
			b.fail(opID(r, c), "%v", err)
		case res.Runs != b.sizes.perCampaign:
			b.fail(opID(r, c), "ran %d of %d episodes", res.Runs, b.sizes.perCampaign)
		}
		recs[i] = res.CampaignRecord
	}
	return recs
}

// table2Trace accumulates what a traced run learns from the episodes
// it submits itself.
type table2Trace struct {
	timer      *oracleTimer
	episodeMS  []float64
	tailIdleMS []float64
	eps        []results.EpisodeRecord
	busy       time.Duration // Σ episode wall time
	workerWall time.Duration // Σ workers × campaign wall time
	fold       time.Duration
	samples    []replaySample
}

// jobOut is one traced episode job's result.
type jobOut struct {
	rr         experiment.RunResult
	start, end time.Time
	worker     any
}

// tracedRound runs one Table II round as the traced run's own engine
// jobs: each calls experiment.RunCtx under the engine scratch, and the
// results fold with results.NewCampaign and Fold — what
// experiment.RunCampaignOn does, with every episode timed, the oracles
// behind the timing decorator, and every sizes.replayEvery-th episode
// kept for the frame replay.
func (s *table2State) tracedRound(b *benchRun, tt *table2Trace, r int, base int64, timed map[core.Vector]core.Oracle, root span) []results.CampaignRecord {
	rsp := root.child("round", 0)
	defer rsp.end()
	eng := s.eng.With(engine.WithWorkerState(func() any { return experiment.NewScratch() }))
	n := b.sizes.perCampaign
	recs := make([]results.CampaignRecord, len(s.campaigns))
	for i, c := range s.campaigns {
		b.op()
		id := opID(r, c)
		attack := experiment.AttackSetup{Mode: c.Mode, PreferDisappearFor: c.PreferDisappearFor, Policy: c.Policy, Oracles: timed}
		jobs := make([]engine.Job, n)
		for j := range jobs {
			jobs[j] = func(ctx context.Context, seed int64) (any, error) {
				start := time.Now()
				rr, err := experiment.RunCtx(ctx, experiment.RunConfig{Source: c.Scenario, Seed: seed, Attack: attack})
				return jobOut{rr: rr, start: start, end: time.Now(), worker: engine.WorkerState(ctx)}, err
			}
		}
		csp := rsp.child("campaign", 0)
		cStart := time.Now()
		rec := results.NewCampaign(c.Name, c.Scenario.Label(), c.Mode, c.ExpectCrashes, base)
		lastEnd := make(map[any]time.Time)
		tids := make(map[any]int)
		delivered := 0
		for res := range eng.StreamOrdered(base, jobs) {
			if res.Err != nil {
				b.fail(id, "episode %d: %v", res.Index, res.Err)
				continue
			}
			delivered++
			o := res.Value.(jobOut)
			tid, ok := tids[o.worker]
			if !ok {
				tid = len(tids) + 1
				tids[o.worker] = tid
			}
			csp.childAt("episode", tid, o.start, o.end)
			f0 := time.Now()
			ep := experiment.RecordEpisode(c.Name, res.Index, res.Seed, c.Scenario.Label(), c.Mode, c.ExpectCrashes, o.rr)
			rec.Fold(ep)
			tt.fold += time.Since(f0)

			busy := o.end.Sub(o.start)
			tt.episodeMS = append(tt.episodeMS, float64(busy)/1e6)
			tt.busy += busy
			tt.eps = append(tt.eps, ep)
			if o.end.After(lastEnd[o.worker]) {
				lastEnd[o.worker] = o.end
			}
			if res.Index%b.sizes.replayEvery == 0 {
				cfg := experiment.RunConfig{Source: c.Scenario, Seed: res.Seed, Attack: attack}
				cfg.Attack.Oracles = s.oracles
				tt.samples = append(tt.samples, replaySample{op: id, cfg: cfg, want: ep})
			}
		}
		cEnd := time.Now()
		csp.endAt(cEnd)
		if delivered != n {
			b.fail(id, "ran %d of %d episodes", delivered, n)
		}
		tt.workerWall += time.Duration(eng.Workers()) * cEnd.Sub(cStart)
		firstIdle := cStart
		if len(lastEnd) >= eng.Workers() {
			firstIdle = cEnd
			for _, t := range lastEnd {
				if t.Before(firstIdle) {
					firstIdle = t
				}
			}
		}
		tt.tailIdleMS = append(tt.tailIdleMS, float64(cEnd.Sub(firstIdle))/1e6)
		recs[i] = rec
	}
	return recs
}

// report sets the oracle, attack-outcome, episode and engine metrics.
func (tt *table2Trace) report(b *benchRun) {
	queries, ns := tt.timer.totals()
	n := float64(len(tt.eps))
	b.set("core.oracle_queries_per_episode", ratio(float64(queries), n))
	b.set("core.oracle_ns_per_query", ratio(float64(ns), float64(queries)))
	b.set("core.oracle_share", ratio(float64(ns), float64(tt.busy)))
	b.setOutcomes(tt.eps)
	b.setEpisodeMS(tt.episodeMS)
	b.set("engine.busy_frac", ratio(float64(tt.busy), float64(tt.workerWall)))
	b.set("engine.tail_idle_ms_per_campaign", ratio(sum(tt.tailIdleMS), float64(len(tt.tailIdleMS))))
	b.set("results.fold_ns_per_episode", ratio(float64(tt.fold), n))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// verify checks the rounds' aggregates: each pair's second round equals
// its first, round 0 equals an episode-by-episode recomputation through
// experiment.RunCtx on one goroutine, and at the default seed round 0's
// digests equal the committed ones.
func (s *table2State) verify(b *benchRun, rounds [][]results.CampaignRecord) {
	for r := 1; r < len(rounds); r += 2 {
		for i, c := range s.campaigns {
			if !bytes.Equal(recordJSON(rounds[r][i]), recordJSON(rounds[r-1][i])) {
				b.fail(opID(r, c), "aggregate differs from round %d's, which ran the same seeds", r-1)
			}
		}
	}
	base := engine.SplitMixSeeds(b.seed, 0)
	digests := make(map[string]string, len(s.campaigns))
	for i, c := range s.campaigns {
		rec := results.NewCampaign(c.Name, c.Scenario.Label(), c.Mode, c.ExpectCrashes, base)
		for j := 0; j < b.sizes.perCampaign; j++ {
			seed := engine.AdditiveSeeds(base, j)
			rr, err := experiment.RunCtx(context.Background(), experiment.RunConfig{Source: c.Scenario, Seed: seed,
				Attack: experiment.AttackSetup{Mode: c.Mode, PreferDisappearFor: c.PreferDisappearFor, Policy: c.Policy, Oracles: s.oracles}})
			if err != nil {
				b.fail(opID(0, c), "reference episode %d: %v", j, err)
				continue
			}
			rec.Fold(experiment.RecordEpisode(c.Name, j, seed, c.Scenario.Label(), c.Mode, c.ExpectCrashes, rr))
		}
		if !bytes.Equal(recordJSON(rec), recordJSON(rounds[0][i])) {
			b.fail(opID(0, c), "aggregate differs from its episode-by-episode recomputation")
		}
		digests[c.Name] = digest(rounds[0][i])
		if b.expect != nil && b.seed == defaultSeed {
			if want := b.expect.Digests[b.workload][c.Name]; digests[c.Name] != want {
				b.fail(opID(0, c), "digest %s, committed %s", digests[c.Name], want)
			}
		}
	}
	b.outputs.Digests = map[string]map[string]string{b.workload: digests}
}
