// Package detect implements the object-detector surrogate that stands
// in for YOLOv3 in the Apollo perception stack (DESIGN.md §2).
//
// The detector is honest about its input: it reads only the camera
// raster. It thresholds the image, extracts connected components,
// classifies each component by aspect ratio, and reports one bounding
// box per component. Two noise processes are injected on top, with the
// exact distribution families and parameters the paper measured for
// YOLOv3 in Fig. 5:
//
//   - bounding-box center error: Gaussian, normalized by box size
//     (vehicle: N(0.023, 0.464^2) in x, N(0.094, 0.586^2) in y;
//     pedestrian: N(0.254, 2.010^2) in x, N(0.186, 0.409^2) in y);
//   - continuous misdetection runs: a component disappears for a run of
//     consecutive frames; run lengths follow a shifted exponential with
//     a heavy tail so that the 99th percentiles land near the paper's
//     31 frames (pedestrian) and 59 frames (vehicle).
//
// Because the attack's stealth envelope is defined by these very
// distributions (§III-B, §VI-A), reproducing them numerically is what
// makes the reproduction faithful.
package detect

import (
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
	"math"
)

// NoiseParams is the Gaussian bbox-center error model for one class,
// in units normalized by the bounding-box width (x) and height (y).
type NoiseParams struct {
	MuX, SigmaX float64
	MuY, SigmaY float64
}

// MissParams is the continuous-misdetection model for one class. A miss
// run starts with probability StartProb per detected frame; its length
// is 1 + Exp(Lambda) frames, except that with probability LongProb it is
// drawn from the heavy tail 1 + Exp(LongLambda).
type MissParams struct {
	StartProb  float64
	Lambda     float64
	LongProb   float64
	LongLambda float64
}

// Fig. 5 parameters (paper, §VI-A).
var (
	// VehicleNoise is the Fig. 5(c)/(d) fit.
	VehicleNoise = NoiseParams{MuX: 0.023, SigmaX: 0.464, MuY: 0.094, SigmaY: 0.586}
	// PedestrianNoise is the Fig. 5(e)/(f) fit.
	PedestrianNoise = NoiseParams{MuX: 0.254, SigmaX: 2.010, MuY: 0.186, SigmaY: 0.409}
	// VehicleMiss targets Fig. 5(b): Exp(loc=1, lambda=0.327), p99 ~ 59 frames.
	VehicleMiss = MissParams{StartProb: 0.022, Lambda: 0.327, LongProb: 0.08, LongLambda: 0.0359}
	// PedestrianMiss targets Fig. 5(a): Exp(loc=1, lambda=0.717), p99 ~ 31 frames.
	PedestrianMiss = MissParams{StartProb: 0.035, Lambda: 0.717, LongProb: 0.08, LongLambda: 0.0693}
)

// Detection is one detector output ("o_t^i" in the paper).
type Detection struct {
	// Box is the reported bounding box (pixel coordinates), including
	// inference noise. This is what the tracker consumes.
	Box geom.Rect
	// Raw is the pixel-exact component box before noise injection.
	Raw geom.Rect
	// Bottom is the sub-pixel refined bottom edge of the reported box
	// (same noise offset as Box). The ground-contact line drives the
	// mono-camera depth estimate, so it is refined from the
	// anti-aliased boundary intensity.
	Bottom float64
	// CenterU is the sub-pixel refined horizontal center (same noise
	// offset as Box); it drives the lateral ground estimate.
	CenterU float64
	// Class is the heuristic classification (aspect ratio).
	Class sim.Class
	// Area is the component's pixel mass.
	Area int
	// Score is a mock confidence in (0, 1], larger for bigger
	// components.
	Score float64
}

// Config parametrizes a Detector.
type Config struct {
	// Threshold is the foreground intensity cut.
	Threshold float64
	// MinArea is the minimum component pixel mass to report.
	MinArea int
	// PedestrianAspect is the height/width ratio above which a
	// component is classified as a pedestrian.
	PedestrianAspect float64
	// Background and Foreground are the expected raster intensities,
	// used to decode fractional boundary coverage for sub-pixel edge
	// refinement.
	Background, Foreground float64
	// NoiseCoreFrac and NoiseTailProb shape the center-error sampling
	// as a variance-preserving core/tail mixture: with probability
	// 1-NoiseTailProb the error is drawn at NoiseCoreFrac*sigma, else
	// from the matching heavy tail. The FITTED sigma equals the
	// configured class sigma either way — this is what reconciles the
	// paper's large fitted sigmas (pedestrian x: 2.01 box widths) with
	// its short misdetection runs: most boxes are tightly localized,
	// and the occasional gross outlier fails the IoU-0.6 bar.
	NoiseCoreFrac, NoiseTailProb float64
	// Vehicle and Pedestrian noise/miss models.
	VehicleNoise    NoiseParams
	PedestrianNoise NoiseParams
	VehicleMiss     MissParams
	PedestrianMiss  MissParams
	// DisableNoise turns off both noise processes (used by the
	// attacker's own inference copy and by unit tests).
	DisableNoise bool
}

// DefaultConfig returns the Fig. 5-calibrated configuration.
func DefaultConfig() Config {
	return Config{
		Threshold:        0.5,
		MinArea:          2,
		PedestrianAspect: 1.45,
		Background:       0.05,
		Foreground:       0.9,
		NoiseCoreFrac:    0.15,
		NoiseTailProb:    0.15,
		VehicleNoise:     VehicleNoise,
		PedestrianNoise:  PedestrianNoise,
		VehicleMiss:      VehicleMiss,
		PedestrianMiss:   PedestrianMiss,
	}
}

// Detector is the stateful detector surrogate. It is stateful only for
// the misdetection-run model, which needs to remember which component
// is currently inside a miss run (real detectors lose an object for
// runs of consecutive frames, not independently per frame). The pixel
// work — connected components and the boundary intensities around each
// — comes from sensor.Image.Components, memoized on the image, so a
// second detector on the same unwritten frame labels nothing. All
// per-frame storage (detections, track memory) is owned by the struct
// and reused, so a warm Detect call does not allocate; the returned
// slice is valid until the next Detect call.
type Detector struct {
	cfg Config
	rng *stats.RNG

	prev, next []detTrack  // miss-run memory, double-buffered
	out        []Detection // per-frame output scratch
}

// detTrack is the internal per-component memory for the miss-run model.
type detTrack struct {
	box      geom.Rect
	missLeft int
	seen     bool
}

// New creates a detector. rng may be nil only when cfg.DisableNoise is
// set.
func New(cfg Config, rng *stats.RNG) *Detector {
	return &Detector{cfg: cfg, rng: rng}
}

// Reset clears the miss-run memory (start of a new episode).
func (d *Detector) Reset() { d.prev = d.prev[:0] }

// SetRNG replaces the detector's noise stream (episode-scratch reuse:
// each episode injects its own deterministic stream).
func (d *Detector) SetRNG(rng *stats.RNG) { d.rng = rng }

// Detect runs the detector on one camera frame and returns the
// reported detections. The returned slice is reused by the next Detect
// call.
func (d *Detector) Detect(img *sensor.Image) []Detection {
	comps := img.Components(d.cfg.Threshold)
	out := d.out[:0]
	for i := range d.prev {
		d.prev[i].seen = false
	}
	next := d.next[:0]

	for i := range comps {
		c := &comps[i]
		if c.Area < d.cfg.MinArea {
			continue
		}
		cls := d.classify(c.Box)
		tr := d.associate(c.Box)
		missLeft := 0
		if tr != nil {
			tr.seen = true
			missLeft = tr.missLeft
		}
		switch {
		case d.cfg.DisableNoise:
			// No miss model, no jitter.
		case missLeft > 0:
			missLeft--
			next = append(next, detTrack{box: c.Box, missLeft: missLeft})
			continue
		default:
			mp := d.missParams(cls)
			if d.rng.Bernoulli(mp.StartProb) {
				run := d.sampleRun(mp, c.Box.H)
				// This frame counts as the first frame of the run.
				next = append(next, detTrack{box: c.Box, missLeft: run - 1})
				continue
			}
		}
		next = append(next, detTrack{box: c.Box})

		box := c.Box
		bottom := d.refineBottom(c)
		centerU := d.refineCenterU(c)
		if !d.cfg.DisableNoise {
			np := d.noiseParams(cls)
			scale := d.noiseScale()
			dx := d.rng.Normal(np.MuX, np.SigmaX*scale) * box.W
			dy := d.rng.Normal(np.MuY, np.SigmaY*scale) * box.H
			box = box.Translate(geom.V(dx, dy))
			bottom += dy
			centerU += dx
		}
		score := geom.Clamp(float64(c.Area)/40.0, 0.3, 1.0)
		out = append(out, Detection{
			Box: box, Raw: c.Box, Bottom: bottom, CenterU: centerU,
			Class: cls, Area: c.Area, Score: score,
		})
	}
	d.prev, d.next, d.out = next, d.prev[:0], out
	return out
}

// sampleRun draws a run length. The heavy tail (multi-second blackouts)
// only afflicts small boxes — distant objects — matching how real
// detectors fail: a large, near silhouette is never lost for seconds.
func (d *Detector) sampleRun(mp MissParams, boxH float64) int {
	lambda := mp.Lambda
	longProb := mp.LongProb * geom.Clamp((12-boxH)/8, 0, 1)
	if d.rng.Bernoulli(longProb) {
		lambda = mp.LongLambda
	}
	return 1 + int(d.rng.Exponential(lambda))
}

// noiseScale draws the core/tail mixture factor such that the overall
// variance equals the configured sigma^2:
// (1-p)*core^2 + p*tail^2 = 1.
func (d *Detector) noiseScale() float64 {
	p := d.cfg.NoiseTailProb
	core := d.cfg.NoiseCoreFrac
	if p <= 0 || p >= 1 {
		return 1
	}
	if d.rng.Bernoulli(p) {
		return math.Sqrt((1 - (1-p)*core*core) / p)
	}
	return core
}

func (d *Detector) missParams(cls sim.Class) MissParams {
	if cls == sim.ClassPedestrian {
		return d.cfg.PedestrianMiss
	}
	return d.cfg.VehicleMiss
}

func (d *Detector) noiseParams(cls sim.Class) NoiseParams {
	if cls == sim.ClassPedestrian {
		return d.cfg.PedestrianNoise
	}
	return d.cfg.VehicleNoise
}

func (d *Detector) classify(box geom.Rect) sim.Class {
	if box.W <= 0 {
		return sim.ClassVehicle
	}
	if box.H/box.W >= d.cfg.PedestrianAspect {
		return sim.ClassPedestrian
	}
	return sim.ClassVehicle
}

// associate finds the previous-frame component closest to box within a
// generous gate, for miss-run continuity.
func (d *Detector) associate(box geom.Rect) *detTrack {
	var best *detTrack
	bestDist := 0.0
	gate := 2.0*box.W + 4
	c := box.Center()
	for i := range d.prev {
		if d.prev[i].seen {
			continue
		}
		dist := d.prev[i].box.Center().Dist(c)
		if dist < gate && (best == nil || dist < bestDist) {
			best, bestDist = &d.prev[i], dist
		}
	}
	return best
}

// refineBottom recovers the sub-pixel bottom edge of a component from
// the anti-aliased partial-coverage intensity of the row just below its
// full-coverage extent.
func (d *Detector) refineBottom(c *sensor.Component) float64 {
	edge := c.Box.Min.Y + c.Box.H
	span := d.cfg.Foreground - d.cfg.Background
	if span <= 0 {
		return edge
	}
	return edge + d.coverage(c.Below, c.BelowIn, span)
}

// refineCenterU recovers the sub-pixel horizontal center from the
// partial-coverage intensity of the columns just outside the component.
func (d *Detector) refineCenterU(c *sensor.Component) float64 {
	box := c.Box
	span := d.cfg.Foreground - d.cfg.Background
	if span <= 0 {
		return box.Center().X
	}
	left := box.Min.X - d.coverage(c.Left, c.LeftIn, span)
	right := box.Min.X + box.W + d.coverage(c.Right, c.RightIn, span)
	return (left + right) / 2
}

// coverage decodes the mean intensity of a boundary row or column into
// the fraction of it the object covers: 0 for a line outside the raster.
func (d *Detector) coverage(mean float64, in bool, span float64) float64 {
	if !in {
		return 0
	}
	return geom.Clamp((mean-d.cfg.Background)/span, 0, 1)
}
