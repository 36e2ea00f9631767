package sensor

import (
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

// Lidar models the roof LiDAR as a range sensor with per-class
// registration distance. The paper observes (§VI-C) that "LiDAR-based
// object detection fails to register pedestrians at a higher
// longitudinal distance, while recognizing vehicles at the same
// distance"; that asymmetry — pedestrians are camera-only until they
// are close — is the mechanism that makes pedestrians easier to attack,
// and it is modelled here directly.
type Lidar struct {
	// VehicleRange and PedestrianRange are the maximum depths at which
	// the LiDAR pipeline registers objects of each class.
	VehicleRange    float64
	PedestrianRange float64
	// Sigma is the Gaussian position noise (meters, per axis).
	Sigma float64
	// DropProb is the per-frame probability that a registered object
	// produces no return (occlusion flicker, segmentation failure).
	DropProb float64

	rng *stats.RNG
	out []Detection    // per-frame output scratch
	rel []sim.RelState // per-frame ground-truth scratch
}

// NewLidar returns a LiDAR with the default registration model.
func NewLidar(rng *stats.RNG) *Lidar {
	return &Lidar{
		VehicleRange:    90,
		PedestrianRange: 45,
		Sigma:           0.15,
		DropProb:        0.02,
		rng:             rng,
	}
}

// Detection is one LiDAR-registered object in the EV frame.
type Detection struct {
	// TruthID records which actor produced the return. It is used only
	// by tests and metrics; the fusion stage associates by position.
	TruthID sim.ActorID
	Class   sim.Class
	RelPos  geom.Vec2 // noisy position relative to the EV
	Size    sim.Size
}

// Reset re-seeds the LiDAR's noise stream (episode-scratch reuse).
func (l *Lidar) Reset(rng *stats.RNG) { l.rng = rng }

// rangeFor returns the registration range for a class.
func (l *Lidar) rangeFor(c sim.Class) float64 {
	if c == sim.ClassPedestrian {
		return l.PedestrianRange
	}
	return l.VehicleRange
}

// Scan returns the LiDAR detections for the current world state.
// Objects behind the EV or beyond their class's registration range
// produce no return. The returned slice is reused by the next Scan
// call.
func (l *Lidar) Scan(w *sim.World) []Detection {
	out := l.out[:0]
	l.rel = w.RelativeInto(l.rel)
	for i := range l.rel {
		r := &l.rel[i]
		if r.Pos.X < 1 || r.Pos.X > l.rangeFor(r.Class) {
			continue
		}
		if l.rng != nil && l.rng.Bernoulli(l.DropProb) {
			continue
		}
		pos := r.Pos
		if l.rng != nil && l.Sigma > 0 {
			pos = pos.Add(geom.V(l.rng.Normal(0, l.Sigma), l.rng.Normal(0, l.Sigma)))
		}
		out = append(out, Detection{TruthID: r.ID, Class: r.Class, RelPos: pos, Size: r.Size})
	}
	l.out = out
	return out
}
