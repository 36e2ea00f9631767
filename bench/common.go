package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/robotack/robotack/bench/stat"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/results"
)

// setupRepeated runs setup sizes.setupReps times, tearing down every
// state but the last, and sets setup_s to the median set-up time. The
// caller owns the returned teardown.
func setupRepeated[T any](b *benchRun, setup func() (T, func(), error)) (T, func(), error) {
	var (
		st       T
		teardown func()
		durs     []float64
	)
	reps := max(b.sizes.setupReps, 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		s, td, err := setup()
		if err != nil {
			return st, nil, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, time.Since(start).Seconds())
		if i < reps-1 {
			td()
			continue
		}
		st, teardown = s, td
	}
	b.set("setup_s", stat.Median(durs))
	return st, teardown, nil
}

// setOps sets the end-to-end metrics shared by every workload from the
// measured phase that began at start, its operations' latencies and the
// episodes they completed.
func (b *benchRun) setOps(start time.Time, opMS []float64, episodes int) {
	wall := time.Since(start)
	b.opMS = opMS
	b.set("episodes_per_s", ratio(float64(episodes), wall.Seconds()))
	b.set("op_ms_p50", stat.Median(opMS))
	b.set("peak_rss_mb", peakRSSMiB())
	b.note("ops", float64(len(opMS)), "count")
	b.note("episodes", float64(episodes), "count")
	b.note("wall_s", wall.Seconds(), "s")
	if p := stat.TailPercentile(len(opMS)); p > 0 {
		b.note(fmt.Sprintf("op_ms_p%g", p), stat.Percentile(opMS, p), "ms")
	}
}

// memStats is the slice of runtime.MemStats the process counters use.
type memStats struct {
	mallocs, bytes, pauseNS uint64
	gc                      uint32
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNS: m.PauseTotalNs, gc: m.NumGC}
}

// memDelta sums MemStats deltas over the untraced stretches of a run.
type memDelta struct {
	allocs, bytes, gc, pauseNS float64
}

func (d *memDelta) add(from, to memStats) {
	d.allocs += float64(to.mallocs - from.mallocs)
	d.bytes += float64(to.bytes - from.bytes)
	d.gc += float64(to.gc - from.gc)
	d.pauseNS += float64(to.pauseNS - from.pauseNS)
}

// setProc records the process counters per episode: as per-layer
// metrics in a traced run and as notes in every run.
func (b *benchRun) setProc(d memDelta, episodes int) {
	n := float64(episodes)
	for _, m := range []struct {
		name string
		v    float64
		unit string
	}{
		{"proc.allocs_per_episode", ratio(d.allocs, n), "count"},
		{"proc.bytes_per_episode", ratio(d.bytes, n), "B"},
		{"proc.gc_cycles_per_1k_episodes", ratio(1000*d.gc, n), "count"},
		{"proc.gc_pause_us_per_episode", ratio(d.pauseNS/1e3, n), "us"},
	} {
		b.set(m.name, m.v)
		b.note(m.name, m.v, m.unit)
	}
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// replaySample is one episode the traced run replays: its
// configuration, the record it must reproduce (V == 0: whatever the
// reference run produces) and the operation it belongs to.
type replaySample struct {
	op   string
	cfg  experiment.RunConfig
	want results.EpisodeRecord
}

// replayAll replays the samples on one goroutine after the measured
// phase, fails the operation of every episode whose outcome differs
// from its record, and sets the frame-layer metrics and closure.frac.
//
// Each sample first runs on the reference path — experiment.RunCtx on a
// one-worker engine whose worker keeps one scratch across samples, the
// pooled steady-state path — right before its replay, so both see the
// same host conditions. closure.frac is the replayed layer time over
// the reference episodes' time: the share of an episode the named
// layers account for. replayAll returns the records the samples
// reproduced and the reference episodes' milliseconds.
func (b *benchRun) replayAll(samples []replaySample, parent span) ([]results.EpisodeRecord, []float64, error) {
	rp := newReplayer()
	scratch := experiment.NewScratch()
	eng := engine.New(engine.WithWorkers(1), engine.WithWorkerState(func() any { return scratch }))
	sp := parent.child("replay", 0)
	defer sp.end()
	var busy time.Duration
	refMS := make([]float64, 0, len(samples))
	eps := make([]results.EpisodeRecord, 0, len(samples))
	for _, s := range samples {
		t0 := time.Now()
		ref, err := engine.Map(eng, 0, []experiment.RunConfig{s.cfg}, func(ctx context.Context, _ int64, cfg experiment.RunConfig) (experiment.RunResult, error) {
			return experiment.RunCtx(ctx, cfg)
		})
		d := time.Since(t0)
		sp.childAt("reference.episode", 0, t0, t0.Add(d))
		if err != nil {
			return nil, nil, fmt.Errorf("reference episode: %w", err)
		}
		busy += d
		refMS = append(refMS, float64(d)/1e6)
		w := s.want
		if w.V == 0 {
			w = experiment.RecordEpisode(w.Campaign, w.Index, s.cfg.Seed, w.Scenario, w.Mode, w.ExpectCrashes, ref[0])
		}
		eps = append(eps, w)

		t0 = time.Now()
		rr, err := rp.run(s.cfg)
		sp.childAt("replay.episode", 0, t0, time.Now())
		id := fmt.Sprintf("%s episode %d", s.op, w.Index)
		if err != nil {
			b.fail(s.op, "%s: %v", id, err)
			continue
		}
		if got := experiment.RecordEpisode(w.Campaign, w.Index, w.Seed, w.Scenario, w.Mode, w.ExpectCrashes, rr); got != w {
			b.fail(s.op, "%s: replayed %+v, recorded %+v", id, got, w)
		}
	}
	perFrame, covered := rp.layerNS()
	for name, v := range perFrame {
		b.set(name, v)
	}
	b.set("closure.frac", ratio(float64(covered), float64(busy)))
	b.note("replay.episodes", float64(rp.episodes), "count")
	b.note("replay.frames", float64(rp.frames), "count")
	return eps, refMS, nil
}

// setEpisodeMS sets the episode-latency metrics.
func (b *benchRun) setEpisodeMS(ms []float64) {
	b.set("experiment.episode_ms_p50", stat.Median(ms))
	b.set("experiment.episode_ms_p99", stat.Percentile(ms, 99))
}

// setOutcomes sets the attack-outcome ratios — launched ÷ attacked
// episodes, and EB or crash ÷ launched — and frames per episode.
func (b *benchRun) setOutcomes(eps []results.EpisodeRecord) {
	var frames, attacked, launched, succeeded int
	for _, ep := range eps {
		frames += ep.Frames
		if ep.Mode == 0 {
			continue
		}
		attacked++
		if ep.Launched {
			launched++
			if ep.EB || ep.Crashed {
				succeeded++
			}
		}
	}
	b.set("core.launch_ratio", ratio(float64(launched), float64(attacked)))
	b.set("core.success_ratio", ratio(float64(succeeded), float64(launched)))
	b.set("experiment.frames_per_episode", ratio(float64(frames), float64(len(eps))))
}

// ratio is a/b, or 0 when b is 0 (a metric with no denominator reads as
// absent work, never as NaN, which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
