// Allocation-regression tests for the frame pipeline: the steady-state
// closed loop — camera capture, the malware's tap, LiDAR scan,
// detector, tracker, fusion, planner, world step — must perform zero
// heap allocations once warm. CI fails on any regression.
package robotack_test

import (
	"context"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// TestFrameStepZeroAllocs requires the production frame step,
// experiment.Episode.Step, to allocate nothing once warm, for golden
// DS-1 (detections, confirmed tracks, fused objects, a braking target)
// and for smart DS-2, whose malware runs its own perception stack and
// attacks inside the measured frames. Both run with metrics recording
// and traced, each episode annotating its own engine-job span as it
// does when the engine runs it, so the proof covers the instrumented
// loop. A first run of the same episode warms the Scratch: every free
// list reaches that trajectory's high-water mark, and the trajectory is
// fixed by the seed. Lest it pass vacuously, it fails if the episode
// ends early, if the planner targets no fused object in the stepped
// frames, or if the measured episode's job span does not count its
// frames and hold time in exactly the stages the episode ran.
func TestFrameStepZeroAllocs(t *testing.T) {
	cases := []struct {
		name string
		cfg  experiment.RunConfig
	}{
		{"golden-DS1", experiment.RunConfig{Scenario: scenario.DS1, Seed: 1}},
		{"smart-DS2", experiment.RunConfig{Scenario: scenario.DS2, Seed: 1,
			Attack: experiment.AttackSetup{Mode: core.ModeSmart, PreferDisappearFor: sim.ClassPedestrian}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sink := &trace.CollectSink{}
			tracer := trace.New("perf", sink)
			tid := trace.DeriveTraceID("perf", c.cfg.Seed)
			s := experiment.NewScratch()
			// start begins the episode as the engine runs a job: under a
			// job span, which the caller finishes.
			start := func() (*experiment.Episode, *trace.Span) {
				sp := tracer.StartSpan(trace.SpanContext{Tracer: tracer, TraceID: tid}, "engine-job",
					trace.DeriveSpanID(tid, uint64(c.cfg.Seed), trace.StreamEngineJob))
				ep, err := s.Start(sp.Context(context.Background()), c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return ep, sp
			}
			warm, warmSpan := start()
			for warm.Step() {
			}
			warmSpan.Finish()

			ep, sp := start()
			for range 44 {
				ep.Step()
			}
			// After AllocsPerRun's warm-up call (frames 44-59), frames
			// 60-315 are measured in blocks of 16, the stage clock's
			// sampling period: an allocation on every sampled frame still
			// reads one per block, while AllocsPerRun's floor absorbs the
			// attack's DeltaTrace, which grows by append from launch on
			// (the campaign path recycles it).
			over, targeted := false, 0
			perBlock := testing.AllocsPerRun(16, func() {
				for range 16 {
					over = !ep.Step() || over
					if ep.Decision().TargetID != 0 {
						targeted++
					}
				}
			})
			// An ended episode or an empty world allocates nothing, so the
			// proof needs the episode running and the planner reacting to a
			// fused object: detect, track and fuse all producing output.
			if over || targeted == 0 {
				t.Fatalf("episode ended in frames 44-315: %v; frames with a fused target: %d; the zero-alloc claim would be vacuous", over, targeted)
			}
			if perBlock != 0 {
				t.Fatalf("warm frame step allocates %.2f times per frame, want 0", perBlock/16)
			}
			for ep.Step() {
			}
			res, _ := ep.Result()
			if c.cfg.Attack.Mode != 0 && (res.LaunchFrame < 60 || res.LaunchFrame >= 316) {
				t.Fatalf("attack launched %v at frame %d, want a launch inside the measured frames", res.Launched, res.LaunchFrame)
			}
			sp.Finish()

			// The measured episode's job span: every frame it ran, and
			// time in every stage it ran on the sampled frames.
			spans := sink.Spans()
			if len(spans) != 2 {
				t.Fatalf("recorded %d spans, want the warm-up's and the measured episode's job spans", len(spans))
			}
			d := spans[1]
			if d.Name != "engine-job" || int(d.Frames) != res.Frames || d.SampledFrames == 0 ||
				len(d.Stages) != perception.NumStages {
				t.Fatalf("job span %+v does not carry the episode's %d frames and its stage annotations", d, res.Frames)
			}
			for i, ns := range d.Stages {
				if ran := i != perception.StageMalware || c.cfg.Attack.Mode != 0; (ns > 0) != ran {
					t.Errorf("span stage %s holds %d ns, want time iff the stage ran", perception.StageNames[i], ns)
				}
			}
		})
	}
}

// TestEpisodeResetLowAlloc guards the per-episode reset path: resetting
// the warm pipeline stack for a new episode must not rebuild it.
func TestEpisodeResetLowAlloc(t *testing.T) {
	scn, err := scenario.InstantiateSource(scenario.DS1, nil, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	w := scn.World
	cam := sensor.DefaultCamera()
	adsRNG := stats.NewRNG(7919)
	ads := perception.NewDefault(cam, adsRNG)
	lidar := sensor.NewLidar(adsRNG.Split())
	pl := planner.New(planner.DefaultConfig(scn.CruiseSpeed))
	var buf sensor.CaptureBuffer
	for i := 0; i < 30; i++ {
		frame := cam.CaptureInto(&buf, w, i)
		objs := ads.Process(frame.Image, lidar.Scan(w))
		pl.Plan(objs, ads.Fusion.Config(), w.EV, w.Road)
		w.Step(0)
	}
	allocs := testing.AllocsPerRun(50, func() {
		ads.Reset()
		pl.Reset()
	})
	// Pipeline.Reset nils the lastDetections slice (its documented
	// post-Reset state); everything else must be reused in place.
	if allocs > 0 {
		t.Fatalf("episode reset allocates %.1f times, want 0", allocs)
	}
}
