package experiment

import (
	"context"

	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// ClassCharacterization holds the Fig. 5 statistics for one class.
type ClassCharacterization struct {
	Class sim.Class
	// MissRuns is the distribution of continuous-misdetection run
	// lengths (frames), Fig. 5(a)/(b).
	MissRuns stats.ExpFit
	// ErrX/ErrY are the normalized bbox-center error fits, Fig. 5(c-f).
	ErrX, ErrY stats.NormalFit
	Samples    int
	Runs       int
}

// Characterization is the full Fig. 5 reproduction.
type Characterization struct {
	Pedestrian ClassCharacterization
	Vehicle    ClassCharacterization
	Frames     int
}

// characterizeSegmentFrames caps the drive length of one engine job.
// Drives longer than this are split into independent segments (each
// with its own world and derived seed) whose sample pools merge before
// fitting — the detector-noise process is stationary, so segmenting
// the paper's 10-minute drive changes nothing statistically while
// letting the segments run in parallel.
const characterizeSegmentFrames = 3000

// characterizePools is one segment's raw sample pools.
type characterizePools struct {
	missRuns, errX, errY map[sim.Class][]float64
}

// Characterize reproduces the paper's §VI-A measurement on a default
// engine: it drives a mixed-traffic world for the given number of
// frames (the paper used a 10-minute manual drive, 9000 frames), runs
// the noisy detector against ground-truth projections, and fits the
// misdetection-run and bbox-error distributions.
func Characterize(frames int, seed int64) Characterization {
	c, _ := CharacterizeOn(engine.New(), frames, seed)
	return c
}

// CharacterizeOn runs the characterization drive on eng, one engine
// job per segment of at most characterizeSegmentFrames frames. Sample
// pools merge in segment order, so the fits are identical for any
// worker count; for frames within a single segment the result matches
// the historical sequential drive exactly.
func CharacterizeOn(eng *engine.Engine, frames int, seed int64) (Characterization, error) {
	var segments []int
	for rem := frames; rem > 0; rem -= characterizeSegmentFrames {
		n := rem
		if n > characterizeSegmentFrames {
			n = characterizeSegmentFrames
		}
		segments = append(segments, n)
	}

	pools, err := engine.Map(eng, seed, segments,
		func(ctx context.Context, segSeed int64, n int) (characterizePools, error) {
			return characterizeSegment(ctx, n, segSeed)
		})

	missRuns := map[sim.Class][]float64{}
	errX := map[sim.Class][]float64{}
	errY := map[sim.Class][]float64{}
	for _, p := range pools {
		for cls, v := range p.missRuns {
			missRuns[cls] = append(missRuns[cls], v...)
		}
		for cls, v := range p.errX {
			errX[cls] = append(errX[cls], v...)
		}
		for cls, v := range p.errY {
			errY[cls] = append(errY[cls], v...)
		}
	}

	charac := Characterization{Frames: frames}
	fill := func(cls sim.Class) ClassCharacterization {
		out := ClassCharacterization{Class: cls, Samples: len(errX[cls]), Runs: len(missRuns[cls])}
		if fit, ferr := stats.FitExponential(missRuns[cls]); ferr == nil {
			out.MissRuns = fit
		}
		if fit, ferr := stats.FitNormal(errX[cls]); ferr == nil {
			out.ErrX = fit
		}
		if fit, ferr := stats.FitNormal(errY[cls]); ferr == nil {
			out.ErrY = fit
		}
		return out
	}
	charac.Pedestrian = fill(sim.ClassPedestrian)
	charac.Vehicle = fill(sim.ClassVehicle)
	return charac, err
}

// characterizeSegment drives one mixed-traffic world for frames frames
// and collects the raw misdetection-run and center-error pools.
func characterizeSegment(ctx context.Context, frames int, seed int64) (characterizePools, error) {
	rng := stats.NewRNG(seed)
	cam := sensor.DefaultCamera()
	det := detect.New(detect.DefaultConfig(), rng.Split())

	ev := sim.DefaultEV()
	ev.Speed = sim.Kph(40)
	w := sim.NewWorld(sim.DefaultRoad(), ev)

	type actorStat struct {
		missRun int
		class   sim.Class
	}
	pools := characterizePools{
		missRuns: map[sim.Class][]float64{},
		errX:     map[sim.Class][]float64{},
		errY:     map[sim.Class][]float64{},
	}
	active := map[sim.ActorID]*actorStat{}

	spawn := func() {
		// Mixed traffic at assorted ranges and lateral positions, as on
		// a city drive.
		if rng.Bernoulli(0.5) {
			w.AddActor(&sim.Actor{
				Class: sim.ClassVehicle,
				Pos:   geom.V(w.EV.Pos.X+rng.Uniform(15, 110), rng.Uniform(-4, 4)),
				Size:  sim.SizeCar,
				Behavior: &sim.Cruise{
					Speed: rng.Uniform(sim.Kph(20), sim.Kph(50)),
				},
			})
		} else {
			// Pedestrians are labeled at the ranges a city drive sees
			// them: near the EV, on and beside the road.
			w.AddActor(&sim.Actor{
				Class:    sim.ClassPedestrian,
				Pos:      geom.V(w.EV.Pos.X+rng.Uniform(8, 38), rng.Uniform(-5, 5)),
				Size:     sim.SizePedestrian,
				Behavior: &sim.Cruise{Speed: rng.Uniform(sim.Kph(38), sim.Kph(43))},
			})
		}
	}
	for i := 0; i < 8; i++ {
		spawn()
	}

	var capture sensor.CaptureBuffer
	for f := 0; f < frames; f++ {
		if f%64 == 0 && ctx.Err() != nil {
			return pools, ctx.Err()
		}
		// Recycle actors that fell behind or ran too far ahead.
		live := w.Actors[:0]
		for _, a := range w.Actors {
			rel := a.Pos.X - w.EV.Pos.X
			if rel > -5 && rel < 140 {
				live = append(live, a)
			} else {
				delete(active, a.ID)
			}
		}
		w.Actors = live
		for len(w.Actors) < 8 {
			spawn()
		}

		frameData := cam.CaptureInto(&capture, w, f)
		dets := det.Detect(frameData.Image)

		for _, truth := range frameData.Truth {
			// Standard detection-benchmark practice: boxes below a
			// minimum size are not labeled (a 2-px-wide silhouette
			// cannot be localized to IoU 0.6 even in principle).
			if truth.Box.W < 3 || truth.Box.H < 3 {
				continue
			}
			st := active[truth.ID]
			if st == nil {
				st = &actorStat{class: truth.Class}
				active[truth.ID] = st
			}
			// Match the best detection by IoU. A box below the overlap
			// bar counts as a misdetection for the run-length statistic
			// (the paper uses IoU 60% on 1080p footage; on our 10x
			// coarser raster the same localization quality corresponds
			// to a lower IoU, so the bar is scaled down: a box a few
			// pixels on a side loses most of its IoU to a one-pixel
			// edge error — a 3x3 box off by one pixel in each axis
			// scores 4/14 ≈ 0.29). The center-error statistic considers
			// every overlapping box (paper: "only predicted bounding
			// boxes that overlap with the ground-truth boxes").
			const missIoU = 0.25
			bestIoU, bestIdx := 0.0, -1
			for i, d := range dets {
				if iou := d.Box.IoU(truth.Box); iou > bestIoU {
					bestIoU, bestIdx = iou, i
				}
			}
			if bestIoU < missIoU {
				st.missRun++
			} else if st.missRun > 0 {
				pools.missRuns[st.class] = append(pools.missRuns[st.class], float64(st.missRun))
				st.missRun = 0
			}
			if bestIdx >= 0 && bestIoU > 0 {
				d := dets[bestIdx]
				pools.errX[truth.Class] = append(pools.errX[truth.Class],
					(d.Box.Center().X-truth.Box.Center().X)/truth.Box.W)
				pools.errY[truth.Class] = append(pools.errY[truth.Class],
					(d.Box.Center().Y-truth.Box.Center().Y)/truth.Box.H)
			}
		}
		w.Step(0)
		w.Halted = false // characterization drive ignores proximity
	}
	return pools, nil
}
