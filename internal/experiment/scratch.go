package experiment

import (
	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/perception"
	"github.com/robotack/robotack/internal/planner"
	"github.com/robotack/robotack/internal/scenario"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/stats"
)

// Scratch is the per-worker episode-execution scratch: one full set of
// the long-lived, internally-pooled objects an episode needs — camera
// frame buffer, ADS perception pipeline, planner, LiDAR, and (when a
// campaign attacks) the malware with its second perception stack and
// per-worker oracle clones. Episodes reset and reuse it instead of
// rebuilding ~500 KB of pipeline state per episode, which together
// with the per-frame pooling inside each stage makes the steady-state
// frame loop allocation-free.
//
// A Scratch is single-goroutine. Engine batches attach one per worker
// via engine.WithWorkerState (see newEngineForJobs); RunCtx falls back
// to a throwaway Scratch when its context carries none. Reuse is
// observationally invisible: every component's Reset restores the
// exact state a fresh construction would have, so episode results are
// bit-identical whether or not (and with whomever) the scratch is
// shared — TestScratchReuseBitIdentical and the cross-worker
// determinism suite enforce this.
type Scratch struct {
	cam     *sensor.Camera
	capture sensor.CaptureBuffer
	ads     *perception.Pipeline
	lidar   *sensor.Lidar
	pl      *planner.Planner

	// Attack-side state, built lazily for the first attacking episode
	// and rebuilt only when the attack configuration or oracle set
	// changes (they never do within one campaign batch).
	malware          *core.Malware
	malwareCfg       core.Config
	hasMalware       bool
	malwareOracleGen int

	// oracles are this worker's clones of the campaign's trained
	// oracles: cloned once per worker instead of once per episode.
	// oracleGen bumps whenever the source set changes identity, so the
	// malware (whose safety hijacker captures the oracles) knows to
	// rebuild.
	oracleSrc map[core.Vector]core.Oracle
	oracles   map[core.Vector]core.Oracle
	oracleGen int

	// arena is the worker's reusable scenario-instantiation state: the
	// world, actors and behavior structs recycle across episodes.
	arena scenario.Arena

	// Pooled episode RNG streams, reseeded per episode instead of
	// reallocated (a rand source is ~5 KB).
	scnRNG, adsRNG, malRNG, lidarRNG *stats.RNG

	// trace is the recycled backing array for RunResult.DeltaTrace on
	// the campaign path (see RunConfig.recycleTrace).
	trace []float64

	// fobs holds this worker's shard-pinned metric handles (see
	// obs.go); built lazily on the first instrumented episode.
	fobs frameObs

	// ep is the episode Start hands out, reused so starting one
	// allocates nothing.
	ep Episode
}

// NewScratch returns an empty episode scratch.
func NewScratch() *Scratch {
	return &Scratch{cam: sensor.DefaultCamera()}
}

// withEpisodeScratch wires a per-worker Scratch factory into eng, so
// every job the returned engine runs finds a reusable scratch in its
// context.
func withEpisodeScratch(eng *engine.Engine) *engine.Engine {
	return eng.With(engine.WithWorkerState(func() any { return NewScratch() }))
}

// reseed returns *p rewound to seed, allocating the stream only once.
// A reseeded stream replays exactly what stats.NewRNG(seed) would.
func reseed(p **stats.RNG, seed int64) *stats.RNG {
	if *p == nil {
		*p = stats.NewRNG(seed)
	} else {
		(*p).Reseed(seed)
	}
	return *p
}

// oraclesFor returns this worker's clones of src, cloning only when
// the source map changes identity (across campaigns, never within
// one). Oracle outputs are pure functions of their weights, so
// worker-level cloning is bit-identical to the historical per-episode
// cloning — it exists because trained oracles keep per-call inference
// scratch and must not be shared across goroutines.
func (s *Scratch) oraclesFor(src map[core.Vector]core.Oracle) map[core.Vector]core.Oracle {
	if src == nil {
		if s.oracleSrc != nil {
			s.oracleSrc, s.oracles = nil, nil
			s.oracleGen++
		}
		return nil
	}
	if s.oracleSrc != nil && len(s.oracleSrc) == len(src) {
		same := true
		for v, o := range src {
			if prev, ok := s.oracleSrc[v]; !ok || prev != o {
				same = false
				break
			}
		}
		if same {
			return s.oracles
		}
	}
	s.oracleSrc = src
	s.oracles = core.CloneOracles(src)
	s.oracleGen++
	return s.oracles
}

// malwareFor returns the scratch's malware re-armed for a new episode,
// rebuilding it only when the attack configuration (or oracle set)
// differs from the previous episode's.
func (s *Scratch) malwareFor(mcfg core.Config, src map[core.Vector]core.Oracle, rng *stats.RNG) *core.Malware {
	oracles := s.oraclesFor(src)
	if s.hasMalware && s.malwareOracleGen == s.oracleGen && malwareConfigEqual(s.malwareCfg, mcfg) {
		s.malware.Reset(rng)
		return s.malware
	}
	s.malware = core.New(mcfg, s.cam, oracles, rng)
	s.malwareCfg = mcfg
	s.hasMalware = true
	s.malwareOracleGen = s.oracleGen
	return s.malware
}

// malwareConfigEqual compares attack configurations, following the
// Forced pointer (core.Config is not comparable by == because of it).
func malwareConfigEqual(a, b core.Config) bool {
	fa, fb := a.Forced, b.Forced
	a.Forced, b.Forced = nil, nil
	if a != b {
		return false
	}
	if (fa == nil) != (fb == nil) {
		return false
	}
	return fa == fb || *fa == *fb
}
