// Package experiment is the evaluation harness: it wires the simulator,
// the ADS stack and the malware into closed-loop episodes, runs the
// paper's campaigns (Table II, Figs. 6-8), generates the safety
// hijacker's training data, and reproduces the Fig. 5 detector
// characterization.
package experiment

import (
	"context"
	"fmt"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
)

// AttackSetup selects what malware (if any) to install for a run.
type AttackSetup struct {
	// Mode zero means a golden (attack-free) run.
	Mode core.Mode
	// PreferDisappearFor steers the Move_Out/Disappear choice of
	// Table I so a campaign exercises one specific vector.
	PreferDisappearFor sim.Class
	// Oracles provides trained safety-hijacker oracles (nil: analytic).
	Oracles map[core.Vector]core.Oracle
	// Forced bypasses the safety hijacker and launches as soon as the
	// malware's delta estimate drops below DeltaInject, for K frames —
	// the paper's training-data collection procedure (§IV-B).
	Forced *ForcedPlan
	// Policy, when set, replaces smart mode's trigger, the default
	// core.SafetyHijackerConfig: the malware consults it per frame for
	// when to fire and how to shape the injection (see
	// core.TriggerPolicy and internal/policy).
	Policy core.TriggerPolicy
}

// ForcedPlan is a scripted attack for training-data generation.
type ForcedPlan = core.ForcedPlan

// RunConfig fully describes one episode.
type RunConfig struct {
	// Scenario selects a paper scenario by ID. Ignored when Source is
	// set.
	Scenario scenario.ID
	// Source, when non-nil, supplies the episode's world: a named
	// registry spec, a spec loaded from JSON, a procedural generator —
	// anything implementing scenario.Source.
	Source scenario.Source
	Seed   int64
	Attack AttackSetup

	// recycleTrace lets the episode reuse the worker scratch's
	// DeltaTrace backing array. Only the campaign path sets it — its
	// fold reads scalar fields only, so the array is dead once the
	// episode returns. Training-data generation keeps the default
	// (fresh allocation) because it consumes DeltaTrace after the whole
	// batch completes.
	recycleTrace bool
}

// source resolves the episode's scenario source.
func (cfg *RunConfig) source() scenario.Source {
	if cfg.Source != nil {
		return cfg.Source
	}
	return cfg.Scenario
}

// RunResult is everything the campaigns and figures need from one
// episode.
type RunResult struct {
	// Launched reports whether the malware fired.
	Launched    bool
	LaunchFrame int
	Vector      core.Vector
	TargetClass sim.Class
	K           int
	KPrime      int

	// EB is true when the planner entered emergency braking after the
	// launch (or at all, for golden runs).
	EB bool
	// Crashed is true when the simulation halted (LGSVL 4 m rule) or
	// the ground-truth safety potential dropped below 4 m after launch.
	Crashed bool
	// MinDelta is the minimum ground-truth safety potential from the
	// launch to the end of the episode (the Fig. 6 metric).
	MinDelta float64
	// DeltaAtLaunch / PredictedDelta / RealizedDelta support Fig. 8:
	// the oracle's forecast vs the ground truth delta at launch+K.
	DeltaAtLaunch  float64
	PredictedDelta float64
	RealizedDelta  float64
	// DeltaTrace is the per-frame ground-truth target-relative safety
	// potential from launch onward (training-data generation).
	DeltaTrace []float64
	// LaunchState is the malware's oracle input at launch.
	LaunchState core.State

	Frames int
}

// targetDelta computes the ground-truth safety potential with respect
// to the scripted target object: gap to the TO minus d_stop. This is
// the quantity the safety hijacker learns to predict.
func targetDelta(w *sim.World, targetID sim.ActorID, safety planner.SafetyConfig) float64 {
	a := w.Actor(targetID)
	if a == nil {
		return safety.MaxDSafe
	}
	gap := (a.Pos.X - a.Size.Length/2) - (w.EV.Pos.X + w.EV.Size.Length/2)
	gap = geom.Max(geom.Min(gap, safety.MaxDSafe), 0)
	return safety.Delta(gap, w.EV.Speed)
}

// RunCtx executes one closed-loop episode under a cancellation
// context: a canceled ctx aborts the frame loop promptly and returns
// ctx.Err(). The episode itself is deterministic in cfg.Seed: when ctx
// is an engine job context the episode reuses the worker's Scratch,
// and the pooled execution is bit-identical to a from-scratch run.
// Outside an engine batch it runs on a throwaway Scratch.
func RunCtx(ctx context.Context, cfg RunConfig) (RunResult, error) {
	s, ok := engine.WorkerState(ctx).(*Scratch)
	if !ok || s == nil {
		s = NewScratch()
	}
	ep, err := s.Start(ctx, cfg)
	if err != nil {
		return RunResult{}, err
	}
	for ep.Step() {
	}
	return ep.Result()
}

// Episode is one closed-loop episode in progress, stepped a frame at a
// time: the paper's Fig. 1 loop of camera capture, the malware's tap
// (Algorithm 1), LiDAR, the ADS's detect, track and fuse stages, the
// planner and the world step. RunCtx is the loop over it. An Episode
// belongs to the Scratch that started it and is valid until that
// Scratch starts the next one.
type Episode struct {
	ctx     context.Context
	s       *Scratch
	scn     *scenario.Scenario
	malware *core.Malware
	safety  planner.SafetyConfig
	recycle bool

	// Observation only (see obs.go): never read back by the episode.
	// sp is the span of the engine job the episode runs as, nil when
	// untraced; its owner finishes it.
	fo *frameObs
	sp *trace.Span

	// frame and d are the last frame's camera frame and planner
	// decision; res.Frames is the next frame's index.
	frame    *sensor.Frame
	d        planner.Decision
	launched bool
	over     bool
	err      error
	res      RunResult
}

// Start begins cfg's episode on s: it instantiates the scenario and
// resets s's pipeline, LiDAR, planner and, for an attack, malware, each
// on its stream derived from cfg.Seed. The Episode is s's own, so a
// pooled episode allocates nothing new. Step checks ctx before every
// 16th frame. When ctx carries a live trace span, the engine job's span
// for an episode run as an engine job, the episode annotates it with
// its frames and stage latencies; it never finishes it.
func (s *Scratch) Start(ctx context.Context, cfg RunConfig) (*Episode, error) {
	scn, err := scenario.InstantiateSource(cfg.source(), &s.arena, reseed(&s.scnRNG, cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	e := &s.ep
	*e = Episode{ctx: ctx, s: s, scn: scn, safety: planner.DefaultSafetyConfig(), recycle: cfg.recycleTrace}
	adsRNG := reseed(&s.adsRNG, cfg.Seed*7919+13)
	if s.ads == nil {
		s.ads = perception.NewDefault(s.cam, adsRNG)
	} else {
		s.ads.Detector.SetRNG(adsRNG)
		s.ads.Reset()
	}
	if lidarRNG := reseed(&s.lidarRNG, adsRNG.SplitSeed()); s.lidar == nil {
		s.lidar = sensor.NewLidar(lidarRNG)
	} else {
		s.lidar.Reset(lidarRNG)
	}
	if pcfg := planner.DefaultConfig(scn.CruiseSpeed); s.pl == nil {
		s.pl = planner.New(pcfg)
	} else {
		s.pl.Reconfigure(pcfg)
	}
	if cfg.Attack.Mode != 0 {
		mcfg := core.DefaultConfig(cfg.Attack.Mode)
		if cfg.Attack.PreferDisappearFor != 0 {
			mcfg.Matcher.PreferDisappearFor = cfg.Attack.PreferDisappearFor
		}
		mcfg.Forced = cfg.Attack.Forced
		mcfg.Policy = cfg.Attack.Policy
		e.malware = s.malwareFor(mcfg, cfg.Attack.Oracles, reseed(&s.malRNG, cfg.Seed*31337+7))
	}

	// Stage timing and span tracing are observational only: the clock,
	// counters and span never feed back into the simulation, RNG streams
	// or result fields. Metrics are write-only outside internal/obs
	// (TestNoTestOnlyCode), and the episode is bit-identical with
	// tracing on, off, or absent (TestCampaignTracesInert).
	e.fo = s.frameObsHandles()
	e.sp = trace.SpanFromContext(ctx)

	e.res.MinDelta = e.safety.MaxDSafe
	if e.recycle {
		e.res.DeltaTrace = s.trace[:0]
	}
	return e, nil
}

// Step runs the episode's next frame and reports whether it ran one.
// It returns false, without running a frame, once the scenario's frames
// are spent, the world has halted, or ctx, checked before every 16th
// frame, is found canceled (so up to 15 frames may run after
// cancellation); Result then holds the outcome.
func (e *Episode) Step() bool {
	if e.over {
		return false
	}
	s, w, i := e.s, e.scn.World, e.res.Frames
	if i >= e.scn.Frames() || w.Halted {
		e.finish()
		return false
	}
	if i%16 == 0 && e.ctx.Err() != nil {
		e.err = e.ctx.Err()
		e.finish()
		return false
	}
	// Stage latencies are sampled (1 frame in 16): seven clock reads
	// per frame cost ~12% episode throughput, sampled they are noise,
	// and the histograms are statistical either way. Frame/episode
	// counters stay exact. Span stage annotation rides the same
	// sampled frames, scaled back at analysis time.
	sampledFrame := i&15 == 0
	var clk stageClock
	if sampledFrame {
		clk = startStageClock(e.sp)
	}
	fo := e.fo
	e.frame = s.cam.CaptureInto(&s.capture, w, i)
	clk.tick(fo, perception.StageSensor)
	if e.malware != nil {
		e.malware.SetEVSpeed(w.EV.Speed)
		e.malware.Process(e.frame.Image, i)
		clk.tick(fo, perception.StageMalware)
	}
	scan := s.lidar.Scan(w)
	clk.tick(fo, perception.StageLidar)
	dets := s.ads.StageDetect(e.frame.Image)
	clk.tick(fo, perception.StageDetectIdx)
	tracks := s.ads.StageTrack(dets)
	clk.tick(fo, perception.StageTrackIdx)
	objs := s.ads.StageFuse(tracks, scan)
	clk.tick(fo, perception.StageFusionIdx)
	e.d = s.pl.Plan(objs, s.ads.Fusion.Config(), w.EV, w.Road)
	clk.tick(fo, perception.StagePlan)
	w.Step(e.d.Accel)
	e.res.Frames++
	e.sp.FrameDone(sampledFrame)
	fo.frames.Add(1)

	e.launched = e.launched || e.malware != nil && e.malware.Log().Launched
	if e.launched || e.malware == nil {
		e.res.EB = e.res.EB || e.d.Mode == planner.ModeEmergencyBrake
		if gd := e.safety.GroundTruthDelta(w); gd < e.res.MinDelta {
			e.res.MinDelta = gd
		}
		if e.launched {
			e.res.DeltaTrace = append(e.res.DeltaTrace, targetDelta(w, e.scn.TargetID, e.safety))
		}
	}
	return true
}

// finish ends the episode: the scratch gets its trace array back, and
// an episode that ran to its end has its outcome settled.
func (e *Episode) finish() {
	e.over = true
	if e.recycle {
		e.s.trace = e.res.DeltaTrace
	}
	if e.err != nil {
		return
	}
	res := &e.res
	res.Crashed = e.scn.World.Halted || res.MinDelta < e.safety.AccidentDelta
	if e.malware != nil {
		log := e.malware.Log()
		res.Launched = log.Launched
		res.LaunchFrame = log.LaunchFrame
		res.Vector = log.Vector
		res.TargetClass = log.TargetClass
		res.K = log.K
		res.KPrime = log.KPrime
		res.DeltaAtLaunch = log.DeltaAtLaunch
		res.LaunchState = log.LaunchState
		res.PredictedDelta = log.PredictedDelta
		if log.Launched && len(res.DeltaTrace) > 0 {
			res.RealizedDelta = res.DeltaTrace[min(log.K, len(res.DeltaTrace)-1)]
		}
		if !log.Launched {
			// An attack that never fired caused whatever happened, so
			// do not attribute golden noise to it.
			res.EB, res.Crashed = false, false
		}
	}
	e.fo.episodes.Add(1)
}

// Result returns the outcome once Step has reported the episode over,
// with ctx's error if it was canceled (the result then covers only the
// frames that ran).
func (e *Episode) Result() (RunResult, error) { return e.res, e.err }

// Scenario returns the episode's scenario; its World is the live world
// Step advances.
func (e *Episode) Scenario() *scenario.Scenario { return e.scn }

// Decision returns the planner's decision on the last frame Step ran.
func (e *Episode) Decision() planner.Decision { return e.d }

// Malware returns the episode's malware, nil for a golden episode.
func (e *Episode) Malware() *core.Malware { return e.malware }
