// Package perception wires the full ADS perception system of the
// paper's Fig. 1: camera raster -> object detector (D) -> Hungarian
// matching (M) -> per-object Kalman filters (F*) -> ground-plane
// transformation (T) -> camera/LiDAR sensor fusion -> world model W_t.
package perception

import (
	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/fusion"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
	"github.com/robotack/robotack/internal/track"
)

// Frame-stage indices of the instrumented closed loop, in execution
// order. They are the shared vocabulary of per-stage telemetry: the
// experiment runner labels its robotack_frame_stage_seconds series and
// annotates episode trace spans by these indices, and robotack-trace
// resolves span stage slots back to names through StageNames. The
// sensor, malware, lidar and plan stages are not perception stages,
// but the loop is timed as one pipeline, so the catalog lives with the
// Stage* instrumentation points it brackets.
const (
	StageSensor = iota
	StageMalware
	StageLidar
	StageDetectIdx
	StageTrackIdx
	StageFusionIdx
	StagePlan
	NumStages
)

// StageNames maps the stage indices to their metric label values.
var StageNames = [NumStages]string{
	"sensor", "malware", "lidar", "detect", "track", "fusion", "plan",
}

// Pipeline is one complete perception stack instance. The ADS owns one;
// the malware owns a second, independent instance for its own
// situational awareness (paper §III-D: the malware reconstructs the
// world from the tapped camera feed).
type Pipeline struct {
	Detector *detect.Detector
	Tracker  *track.Tracker
	Fusion   *fusion.Fusion

	lastDetections []detect.Detection
}

// New builds a pipeline around the given camera geometry. rng feeds the
// detector's noise processes; a detCfg with DisableNoise builds the
// deterministic stack the malware runs, and rng may then be nil.
func New(cam *sensor.Camera, detCfg detect.Config, rng *stats.RNG) *Pipeline {
	trkCfg := track.DefaultConfig()
	if detCfg.DisableNoise {
		// The tracker's measurement debiasing compensates the
		// detector's characterized error means; with noise disabled it
		// would itself introduce a systematic bias.
		trkCfg.VehicleNoise = detect.NoiseParams{}
		trkCfg.PedestrianNoise = detect.NoiseParams{}
	}
	return &Pipeline{
		Detector: detect.New(detCfg, rng),
		Tracker:  track.NewTracker(trkCfg),
		Fusion:   fusion.New(cam),
	}
}

// NewDefault builds the ADS's pipeline.
func NewDefault(cam *sensor.Camera, rng *stats.RNG) *Pipeline {
	return New(cam, detect.DefaultConfig(), rng)
}

// Process runs one frame through the stack and returns the fused world
// model. It is the composition of the three stage methods below;
// callers that time individual stages (the instrumented episode
// runner) invoke them directly.
func (p *Pipeline) Process(img *sensor.Image, lidar []sensor.Detection) []fusion.Object {
	dets := p.StageDetect(img)
	tracks := p.StageTrack(dets)
	return p.StageFuse(tracks, lidar)
}

// StageDetect runs the object detector and records its output as the
// frame's last detections.
func (p *Pipeline) StageDetect(img *sensor.Image) []detect.Detection {
	p.lastDetections = p.Detector.Detect(img)
	return p.lastDetections
}

// StageTrack advances the Hungarian-matched Kalman trackers.
func (p *Pipeline) StageTrack(dets []detect.Detection) []*track.Track {
	return p.Tracker.Step(dets)
}

// StageFuse fuses camera tracks with the LiDAR scan into the frame's
// world model.
func (p *Pipeline) StageFuse(tracks []*track.Track, lidar []sensor.Detection) []fusion.Object {
	return p.Fusion.Step(tracks, lidar, sim.DT)
}

// LastDetections returns the detector output of the most recent frame.
func (p *Pipeline) LastDetections() []detect.Detection { return p.lastDetections }

// Reset clears all stateful stages for a new episode.
func (p *Pipeline) Reset() {
	p.Detector.Reset()
	p.Tracker.Reset()
	p.Fusion.Reset()
	p.lastDetections = nil
}
