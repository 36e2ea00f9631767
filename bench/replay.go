package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// Frame layers of the closed loop, in the order experiment.RunCtx runs
// them each frame.
const (
	layerCapture = iota
	layerMalware
	layerLidar
	layerDetect
	layerTrack
	layerFusion
	layerPlan
	layerStep
	numLayers
)

var layerMetric = [numLayers]string{
	"sensor.capture_ns_per_frame",
	"core.malware_ns_per_frame",
	"sensor.lidar_ns_per_frame",
	"detect.ns_per_frame",
	"track.ns_per_frame",
	"fusion.ns_per_frame",
	"planner.ns_per_frame",
	"sim.step_ns_per_frame",
}

// replayer re-executes episodes through the exported calls
// experiment.RunCtx makes — scenario.InstantiateSource on an arena,
// Camera.CaptureInto, Malware.Process, Lidar.Scan, the three
// perception stages, Planner.Plan and World.Step — with RunCtx's seed
// derivation, and times each frame layer. It reuses its pipeline
// objects across episodes the way an engine worker's
// experiment.Scratch does, so the per-frame costs it measures are the
// steady-state costs campaigns pay. TestReplayMatchesRunCtx keeps it
// outcome-identical to RunCtx. A replayer is single-goroutine.
type replayer struct {
	cam     *sensor.Camera
	capture sensor.CaptureBuffer
	arena   *scenario.Arena
	ads     *perception.Pipeline
	lidar   *sensor.Lidar
	pl      *planner.Planner
	trace   []float64

	scnRNG, adsRNG, lidarRNG, malRNG *stats.RNG

	malware    *core.Malware
	malwareCfg core.Config
	oracleSrc  map[core.Vector]core.Oracle
	oracles    map[core.Vector]core.Oracle

	// ns is the time spent in each layer, frames and episodes the work
	// replayed. The layer clock reads time since base.
	ns       [numLayers]time.Duration
	frames   int64
	episodes int
	base     time.Time
}

func newReplayer() *replayer {
	return &replayer{cam: sensor.DefaultCamera(), arena: scenario.NewArena(), base: time.Now()}
}

// clockCost is what one read of the monotonic clock costs. Every timed
// interval contains about one read, so intervals subtract it: the
// replay's eight reads per frame would otherwise count as layer time
// (about 3% of a frame on the benchmark host).
var clockCost = sync.OnceValue(func() time.Duration {
	best := time.Duration(1 << 62)
	base := time.Now()
	for range 5 {
		const n = 20_000
		start := time.Since(base)
		for range n {
			_ = time.Since(base)
		}
		best = min(best, (time.Since(base)-start)/n)
	}
	return best
})

// reseed rewinds *p to seed, allocating the stream only once, as the
// engine scratch does.
func reseed(p **stats.RNG, seed int64) *stats.RNG {
	if *p == nil {
		*p = stats.NewRNG(seed)
	} else {
		(*p).Reseed(seed)
	}
	return *p
}

// lap charges the time since *t to layer and restarts the clock.
func (r *replayer) lap(t *time.Duration, layer int) {
	now := time.Since(r.base)
	r.ns[layer] += now - *t - clockCost()
	*t = now
}

// run replays one episode and returns what experiment.RunCtx returns
// for the same configuration.
func (r *replayer) run(cfg experiment.RunConfig) (experiment.RunResult, error) {
	src := cfg.Source
	if src == nil {
		src = cfg.Scenario
	}
	scn, err := scenario.InstantiateSource(src, r.arena, reseed(&r.scnRNG, cfg.Seed))
	if err != nil {
		return experiment.RunResult{}, fmt.Errorf("replay: %w", err)
	}
	w := scn.World
	adsRNG := reseed(&r.adsRNG, cfg.Seed*7919+13)
	if r.ads == nil {
		r.ads = perception.NewDefault(r.cam, adsRNG)
	} else {
		r.ads.Detector.SetRNG(adsRNG)
		r.ads.Reset()
	}
	lidarRNG := reseed(&r.lidarRNG, adsRNG.SplitSeed())
	if r.lidar == nil {
		r.lidar = sensor.NewLidar(lidarRNG)
	} else {
		r.lidar.Reset(lidarRNG)
	}
	if pcfg := planner.DefaultConfig(scn.CruiseSpeed); r.pl == nil {
		r.pl = planner.New(pcfg)
	} else {
		r.pl.Reconfigure(pcfg)
	}
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
		malware = r.malwareFor(mcfg, cfg.Attack.Oracles, reseed(&r.malRNG, cfg.Seed*31337+7))
	}

	res := experiment.RunResult{MinDelta: safety.MaxDSafe, DeltaTrace: r.trace[:0]}
	launched := false
	for i := 0; i < scn.Frames() && !w.Halted; i++ {
		t := time.Since(r.base)
		frame := r.cam.CaptureInto(&r.capture, w, i)
		r.lap(&t, layerCapture)
		if malware != nil {
			malware.SetEVSpeed(w.EV.Speed)
			malware.Process(frame.Image, i)
			r.lap(&t, layerMalware)
		}
		scan := r.lidar.Scan(w)
		r.lap(&t, layerLidar)
		dets := r.ads.StageDetect(frame.Image)
		r.lap(&t, layerDetect)
		tracks := r.ads.StageTrack(dets)
		r.lap(&t, layerTrack)
		objs := r.ads.StageFuse(tracks, scan)
		r.lap(&t, layerFusion)
		d := r.pl.Plan(objs, r.ads.Fusion.Config(), w.EV, w.Road)
		r.lap(&t, layerPlan)
		w.Step(d.Accel)
		r.lap(&t, layerStep)
		res.Frames++

		if malware != nil && !launched && malware.Log().Launched {
			launched = true
		}
		if launched || malware == nil {
			if d.Mode == planner.ModeEmergencyBrake {
				res.EB = true
			}
			if gd := safety.GroundTruthDelta(w); gd < res.MinDelta {
				res.MinDelta = gd
			}
			if launched {
				res.DeltaTrace = append(res.DeltaTrace, targetDelta(w, scn.TargetID, safety))
			}
		}
	}
	r.trace = res.DeltaTrace
	if w.Halted || res.MinDelta < safety.AccidentDelta {
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
			res.RealizedDelta = res.DeltaTrace[min(log.K, len(res.DeltaTrace)-1)]
		}
		if !log.Launched {
			res.EB, res.Crashed = false, false
		}
	}
	r.frames += int64(res.Frames)
	r.episodes++
	return res, nil
}

// malwareFor re-arms the replayer's malware, rebuilding it only when
// the attack configuration or the oracle set changes, as the engine
// scratch does.
func (r *replayer) malwareFor(mcfg core.Config, src map[core.Vector]core.Oracle, rng *stats.RNG) *core.Malware {
	if !sameOracles(r.oracleSrc, src) {
		r.oracleSrc, r.oracles = src, core.CloneOracles(src)
		r.malware = nil
	}
	if r.malware != nil && sameConfig(r.malwareCfg, mcfg) {
		r.malware.Reset(rng)
		return r.malware
	}
	r.malware = core.New(mcfg, r.cam, r.oracles, rng)
	r.malwareCfg = mcfg
	return r.malware
}

func sameOracles(a, b map[core.Vector]core.Oracle) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for v, o := range a {
		if p, ok := b[v]; !ok || p != o {
			return false
		}
	}
	return true
}

// sameConfig compares attack configurations through the Forced pointer.
func sameConfig(a, b core.Config) bool {
	fa, fb := a.Forced, b.Forced
	a.Forced, b.Forced = nil, nil
	if a != b || (fa == nil) != (fb == nil) {
		return false
	}
	return fa == fb || *fa == *fb
}

// targetDelta is the ground-truth safety potential toward the scripted
// target: the gap to it minus the stopping distance.
func targetDelta(w *sim.World, target sim.ActorID, safety planner.SafetyConfig) float64 {
	a := w.Actor(target)
	if a == nil {
		return safety.MaxDSafe
	}
	gap := (a.Pos.X - a.Size.Length/2) - (w.EV.Pos.X + w.EV.Size.Length/2)
	gap = math.Max(math.Min(gap, safety.MaxDSafe), 0)
	return safety.Delta(gap, w.EV.Speed)
}

// layerNS returns the replayed time per frame of each frame layer,
// keyed by metric name, and the share of the replayed episodes' wall
// time the layers account for.
func (r *replayer) layerNS() (perFrame map[string]float64, covered time.Duration) {
	perFrame = make(map[string]float64, numLayers)
	for i, d := range r.ns {
		perFrame[layerMetric[i]] = ratio(float64(d), float64(r.frames))
		covered += d
	}
	return perFrame, covered
}
