package experiment

// Frame-pipeline instrumentation. Each perception stage of the Fig. 1
// loop gets a latency histogram series (stage label), plus frame and
// episode throughput counters; when the episode runs as a traced
// engine job, the same clock reads also accumulate into the job span's
// per-stage slots. Recording is observational only: it reads the wall
// clock and bumps atomics, and never touches seeds, RNG streams or
// result fields, so instrumented campaigns are bit-identical to
// uninstrumented ones. The handles live in the per-worker Scratch and
// recording is allocation-free (TestFrameStepZeroAllocs covers the
// instrumented loop with tracing enabled).

import (
	"time"

	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/perception"
)

var frameStageBuckets = obs.ExpBuckets(1e-6, 2, 14) // 1µs .. 8.192ms

func stageHist(stage string) *obs.Histogram {
	return obs.NewHistogram("robotack_frame_stage_seconds",
		"Frame-pipeline stage latency by stage.",
		frameStageBuckets, obs.Label{Key: "stage", Value: stage})
}

// stageHists registers each stage's series once at init. Registration
// (label escaping, series lookup) used to run per fresh Scratch, which
// dominated the direct-Run allocation profile; handles still pin
// per-worker shards, but against these shared series.
var stageHists = func() [perception.NumStages]*obs.Histogram {
	var h [perception.NumStages]*obs.Histogram
	for i, name := range perception.StageNames {
		h[i] = stageHist(name)
	}
	return h
}()

var (
	framesTotal   = obs.NewCounter("robotack_frames_total", "Simulation frames executed.")
	episodesTotal = obs.NewCounter("robotack_episodes_total", "Episodes completed.")
)

// frameObs is one worker's set of shard-pinned recording handles,
// one histogram per perception.Stage* index.
type frameObs struct {
	init     bool
	stage    [perception.NumStages]obs.HistogramHandle
	frames   obs.CounterHandle
	episodes obs.CounterHandle
}

func newFrameObs() frameObs {
	fo := frameObs{
		init:     true,
		frames:   framesTotal.Handle(),
		episodes: episodesTotal.Handle(),
	}
	for i := range stageHists {
		fo.stage[i] = stageHists[i].Handle()
	}
	return fo
}

// frameObsHandles returns the scratch's recording handles, building
// them on first use (one registry hit per worker, not per episode).
func (s *Scratch) frameObsHandles() *frameObs {
	if !s.fobs.init {
		s.fobs = newFrameObs()
	}
	return &s.fobs
}

// stageClock times consecutive stages within one sampled frame: each
// tick observes the span since the previous tick into the stage's
// histogram and into the job span's stage slot (when the episode is
// traced), then restarts. The zero clock, on unsampled frames,
// is free — tick is only the branch, and inlines.
type stageClock struct {
	t  time.Time
	on bool
	sp *trace.Span
}

func startStageClock(sp *trace.Span) stageClock {
	return stageClock{t: time.Now(), on: true, sp: sp}
}

func (c *stageClock) tick(fo *frameObs, stage int) {
	if c.on {
		c.lap(fo, stage)
	}
}

// lap is a sampled frame's tick: it records the stage's time and
// restarts the clock.
func (c *stageClock) lap(fo *frameObs, stage int) {
	now := time.Now()
	d := now.Sub(c.t)
	fo.stage[stage].Observe(d.Seconds())
	c.sp.StageAdd(stage, d) // nil-safe
	c.t = now
}
