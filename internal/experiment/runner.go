// Package experiment is the evaluation harness: it wires the simulator,
// the ADS stack and the malware into closed-loop episodes, runs the
// paper's campaigns (Table II, Figs. 6-8), generates the safety
// hijacker's training data, and reproduces the Fig. 5 detector
// characterization.
package experiment

import (
	"context"
	"fmt"
	"math"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/obs"
	"github.com/robotack/robotack/internal/obs/trace"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
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
	// Policy, when set, replaces smart mode's built-in fixed trigger:
	// the malware consults it per frame for when to fire and how to
	// shape the injection (see core.TriggerPolicy / internal/policy).
	// Nil reproduces the paper's trigger bit-identically.
	Policy core.TriggerPolicy
}

// ForcedPlan is a scripted attack for training-data generation.
type ForcedPlan struct {
	DeltaInject float64
	K           int
}

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
	gap = math.Max(math.Min(gap, safety.MaxDSafe), 0)
	return safety.Delta(gap, w.EV.Speed)
}

// Run executes one closed-loop episode.
func Run(cfg RunConfig) (RunResult, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx executes one closed-loop episode under a cancellation
// context: a canceled ctx aborts the frame loop promptly and returns
// ctx.Err(). The episode itself is deterministic in cfg.Seed: when ctx
// is an engine job context the episode reuses the worker's Scratch,
// and the pooled execution is bit-identical to a from-scratch run.
func RunCtx(ctx context.Context, cfg RunConfig) (RunResult, error) {
	s := scratchFrom(ctx)
	scn, err := scenario.InstantiateSource(cfg.source(), s.arenaFor(), reseed(&s.scnRNG, cfg.Seed))
	if err != nil {
		return RunResult{}, fmt.Errorf("experiment: %w", err)
	}
	w := scn.World
	cam := s.cam
	adsRNG := reseed(&s.adsRNG, cfg.Seed*7919+13)
	ads := s.pipeline(adsRNG)
	lidar := s.lidarFor(reseed(&s.lidarRNG, adsRNG.SplitSeed()))
	pl := s.plannerFor(planner.DefaultConfig(scn.CruiseSpeed))
	safety := planner.DefaultSafetyConfig()

	var malware *core.Malware
	if cfg.Attack.Mode != 0 {
		mcfg := core.DefaultConfig(cfg.Attack.Mode)
		if cfg.Attack.PreferDisappearFor != 0 {
			mcfg.Matcher.PreferDisappearFor = cfg.Attack.PreferDisappearFor
		}
		if fp := cfg.Attack.Forced; fp != nil {
			mcfg.Forced = &core.ForcedPlan{DeltaInject: fp.DeltaInject, K: fp.K}
		}
		mcfg.Policy = cfg.Attack.Policy
		malware = s.malwareFor(mcfg, cfg.Attack.Oracles, reseed(&s.malRNG, cfg.Seed*31337+7))
	}

	// Stage timing and span tracing are observational only: the clock,
	// counters and span never feed back into the simulation, RNG streams
	// or result fields, so the episode is bit-identical with metrics and
	// tracing on, off, or absent (TestCampaignMetricsInert,
	// TestCampaignTracesInert).
	en := obs.Enabled()
	fo := s.frameObsHandles()
	var sp *trace.Span
	if sc, ok := trace.FromContext(ctx); ok {
		sp = sc.Tracer.StartEpisode(sc, cfg.Seed)
		defer sp.Finish()
	}

	res := RunResult{MinDelta: safety.MaxDSafe}
	if cfg.recycleTrace {
		res.DeltaTrace = s.trace[:0]
		defer func() { s.trace = res.DeltaTrace }()
	}
	launched := false
	for i := 0; i < scn.Frames() && !w.Halted; i++ {
		if i%16 == 0 && ctx.Err() != nil {
			return res, ctx.Err()
		}
		// Stage latencies are sampled (1 frame in 16): seven clock reads
		// per frame cost ~12% episode throughput, sampled they are noise,
		// and the histograms are statistical either way. Frame/episode
		// counters stay exact. Span stage annotation rides the same
		// sampled frames, scaled back at analysis time.
		sampledFrame := i&15 == 0
		spFrame := sp
		if !sampledFrame {
			spFrame = nil
		}
		clk := startStageClock(en && sampledFrame, spFrame)
		frame := cam.CaptureInto(&s.capture, w, i)
		clk.tick(fo, perception.StageSensor)
		if malware != nil {
			malware.SetEVSpeed(w.EV.Speed)
			malware.Process(frame.Image, i)
			clk.tick(fo, perception.StageMalware)
		}
		scan := lidar.Scan(w)
		clk.tick(fo, perception.StageLidar)
		dets := ads.StageDetect(frame.Image)
		clk.tick(fo, perception.StageDetectIdx)
		tracks := ads.StageTrack(dets)
		clk.tick(fo, perception.StageTrackIdx)
		objs := ads.StageFuse(tracks, scan)
		clk.tick(fo, perception.StageFusionIdx)
		d := pl.Plan(objs, ads.Fusion.Config(), w.EV, w.Road)
		clk.tick(fo, perception.StagePlan)
		w.Step(d.Accel)
		res.Frames++
		sp.FrameDone(sampledFrame)
		if en {
			fo.frames.Add(1)
		}

		if malware != nil && !launched && malware.Log().Launched {
			launched = true
		}
		counting := launched || malware == nil
		if counting {
			if d.Mode == planner.ModeEmergencyBrake {
				res.EB = true
			}
			gd := safety.GroundTruthDelta(w)
			if gd < res.MinDelta {
				res.MinDelta = gd
			}
			if launched {
				res.DeltaTrace = append(res.DeltaTrace, targetDelta(w, scn.TargetID, safety))
			}
		}
	}
	if w.Halted {
		res.Crashed = true
	}
	if res.MinDelta < safety.AccidentDelta {
		res.Crashed = true
	}
	if malware != nil {
		log := malware.Log()
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
			idx := log.K
			if idx >= len(res.DeltaTrace) {
				idx = len(res.DeltaTrace) - 1
			}
			res.RealizedDelta = res.DeltaTrace[idx]
		}
		if !log.Launched {
			// An attack that never fired caused whatever happened, so
			// do not attribute golden noise to it.
			res.EB = false
			res.Crashed = false
		}
	}
	if en {
		fo.episodes.Add(1)
	}
	return res, nil
}
