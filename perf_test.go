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
// and under a sample-every-1 trace, so the proof covers the
// instrumented loop. A first run of the same episode warms the
// Scratch: every free list reaches that trajectory's high-water mark,
// and the trajectory is fixed by the seed. Lest it pass vacuously, it fails if the episode
// ends early, if the planner targets no fused object in the stepped
// frames, or if no sampled, stage-annotated episode span is recorded.
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
			tracer := trace.New("perf", sink, trace.WithSampleEvery(1))
			ctx := trace.NewContext(context.Background(),
				trace.SpanContext{Tracer: tracer, TraceID: trace.DeriveTraceID("perf", c.cfg.Seed)})
			s := experiment.NewScratch()
			start := func() *experiment.Episode {
				ep, err := s.Start(ctx, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return ep
			}
			for ep := start(); ep.Step(); {
			}

			ep := start()
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
			if res, _ := ep.Result(); c.cfg.Attack.Mode != 0 && (res.LaunchFrame < 60 || res.LaunchFrame >= 316) {
				t.Fatalf("attack launched %v at frame %d, want a launch inside the measured frames", res.Launched, res.LaunchFrame)
			}

			// The measured episode's span: sampled, and annotated on its
			// sampled frames in every stage it ran.
			spans := sink.Spans()
			if len(spans) != 2 {
				t.Fatalf("recorded %d spans, want the warm-up's and the measured episode's", len(spans))
			}
			sp := spans[1]
			if sp.Name != "episode" || !sp.Sampled || sp.SampledFrames == 0 || len(sp.Stages) != perception.NumStages {
				t.Fatalf("no sampled, stage-annotated episode span recorded: %+v", sp)
			}
			for i, ns := range sp.Stages {
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
