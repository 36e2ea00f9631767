// Package fusion combines camera tracks and LiDAR detections into the
// EV's world model W_t (paper Fig. 1, "Sensor Fusion"). It provides the
// "redundancy in space" that — together with the Kalman filters'
// redundancy in time — masks ordinary adversarial perturbations (§I).
//
// The fusion maintains a per-object confidence that accumulates when
// sensors confirm the object and decays otherwise. Two properties of
// the paper's Apollo + LGSVL stack are modelled explicitly (§VI-C):
//
//   - pedestrians beyond the LiDAR registration range are camera-only,
//     so suppressing ~14 camera frames erases them from the world
//     model, while vehicles — still confirmed by LiDAR — take ~3x
//     longer to fade;
//   - when camera and LiDAR disagree (one sees an object where the
//     other does not, or their positions drift apart), the disagreeing
//     LiDAR evidence is discounted, which delays (re-)registration of
//     the true object.
package fusion

import (
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/track"
)

// Config holds what the planner and the attacker's safety model share
// with the fusion stage.
type Config struct {
	// Confident is the confidence level at which the planner treats the
	// object as real. Exported here so the planner and the attacker's
	// safety model agree on it. Kept a field: Planner.Plan reads it from
	// the fusion.Config that the bench passes in.
	Confident float64
}

// DefaultConfig returns the fusion configuration used across the
// reproduction.
func DefaultConfig() Config { return Config{Confident: 0.5} }

// Fusion tuning. With these constants a camera-only object (pedestrian
// beyond LiDAR range) fades from confident to ignored in ~13-14 frames
// of camera suppression, and a dual-sensor vehicle in ~24 frames —
// matching the K values the paper reports for Disappear attacks
// (Table II).
const (
	// decay multiplies every object's confidence each frame.
	decay float64 = 0.95
	// cameraGain is added when a camera detection confirms the object
	// this frame (a coasting track does not count).
	cameraGain float64 = 0.08
	// lidarGain is added when a LiDAR return confirms an object that
	// the camera also confirmed this frame.
	lidarGain float64 = 0.05
	// lidarAloneGainVehicle and lidarAloneGainPedestrian are the
	// discounted gains when only the LiDAR sees the object (sensor
	// disagreement, §VI-C). The pedestrian gain is much weaker: a small
	// point cluster with no camera confirmation barely registers, which
	// is why suppressing ~14 camera frames erases a pedestrian from the
	// world model while a vehicle takes ~24 (paper Table II K values).
	lidarAloneGainVehicle    float64 = 0.015
	lidarAloneGainPedestrian float64 = 0.004
	// LidarTrustFrames(Vehicle|Pedestrian): after this many consecutive
	// LiDAR-alone confirmations, the fusion concludes the camera is the
	// one failing and promotes the object to full LiDAR gain. This
	// re-registration delay is what bounds the Disappear attack's
	// blindness window (paper §VI-C: fusion "delays the object
	// registration ... because of disagreement").
	LidarTrustFramesVehicle    int = 75
	LidarTrustFramesPedestrian int = 60
	// lateralGate is the lateral ground-distance gate (meters) for
	// associating sensor evidence with fusion objects. Exceeding it —
	// which is exactly what a Move_Out hijack induces — dissociates the
	// LiDAR from the camera-backed object.
	lateralGate float64 = 1.8
	// longGateFrac scales the longitudinal gate with depth: mono-camera
	// depth error grows roughly linearly with range, so the gate must
	// too. The gate is max(longGateMin, longGateFrac * depth).
	longGateFrac float64 = 0.2
	longGateMin  float64 = 3.0
	// dropBelow removes an object whose confidence falls under it.
	dropBelow float64 = 0.008
	// velBeta is the alpha-beta velocity smoothing factor for the
	// longitudinal axis; velBetaLateral is the (slower) lateral one —
	// lateral velocity differentiates the noisiest camera axis, so it
	// needs heavier smoothing to avoid phantom cut-ins.
	velBeta        float64 = 0.25
	velBetaLateral float64 = 0.12
	// camLateralWeight and camLongitudinalWeight blend camera vs LiDAR
	// positions when both confirm: the camera wins laterally (better
	// angular resolution), the LiDAR owns longitudinal range (direct
	// ranging; mono-camera depth is quantization-limited).
	camLateralWeight      float64 = 0.65
	camLongitudinalWeight float64 = 0
	// maxLatStep and maxLongStep rate-limit camera-sourced position
	// updates of established objects (m per frame): physical objects do
	// not teleport, so a fresh (noisy) camera track re-association must
	// not yank a confident object sideways into the EV corridor.
	maxLatStep  float64 = 0.35
	maxLongStep float64 = 2.0
	// camCreateMaxDepth bounds new-object creation from camera-only
	// evidence: beyond it, mono-camera depth is too unreliable to seed
	// the world model (existing objects may still be updated).
	camCreateMaxDepth float64 = 55
	// ghostMissFrames drops an object that has had no sensor
	// confirmation for this many frames and no recent LiDAR backing —
	// it is stale extrapolation, not evidence.
	ghostMissFrames int = 12
	// probationFrames caps a camera-only newborn's confidence below the
	// planner threshold until its mono-depth estimate has had time to
	// converge: a single noisy bounding box must not conjure a braking
	// target out of thin air.
	probationFrames int = 8
	// probationCap is that confidence cap.
	probationCap float64 = 0.45
)

// Velocity spikes beyond these bounds (m/s) are association or
// quantization artifacts, not physics, and are excluded from the
// velocity smoother.
const (
	maxCredibleVelX = 22.0
	maxCredibleVelY = 8.0
)

// Object is one entry of the fused world model.
type Object struct {
	ID    int
	Class sim.Class
	// Rel is the fused position relative to the EV (x ahead, y right),
	// center to center, in meters.
	Rel geom.Vec2
	// Vel is the smoothed relative velocity in m/s.
	Vel geom.Vec2
	// Size is the believed physical extent.
	Size sim.Size
	// Confidence in [0, 1]; the planner reacts above Config.Confident.
	Confidence float64
	// CameraTrackID is the image-space track backing this object
	// (0 when LiDAR-only).
	CameraTrackID int
	// CameraSeen/LidarSeen report which sensors confirmed this frame.
	CameraSeen bool
	LidarSeen  bool
	// Age is frames since creation; MissFrames since last confirmation.
	Age        int
	MissFrames int

	prevRel geom.Vec2
	hasPrev bool
	// lidarFresh counts down from lidarOwnsRangeFrames after each LiDAR
	// confirmation; while positive, the LiDAR-derived longitudinal range
	// is kept in preference to the quantization-limited camera depth.
	lidarFresh int
	// lidarStreak counts consecutive LiDAR-alone confirmations toward
	// the LidarTrustFrames promotion.
	lidarStreak int
	// drop marks the object for removal within one merge pass.
	drop bool
}

// lidarOwnsRangeFrames is how long a LiDAR range fix outranks camera
// depth estimates.
const lidarOwnsRangeFrames = 8

// Confident reports whether the object clears the planner threshold.
func (o *Object) Confident(cfg *Config) bool { return o.Confidence >= cfg.Confident }

// Fusion is the sensor-fusion stage. Its per-frame working storage —
// back-projected camera observations, the returned snapshot and
// reaped Object structs — is struct-owned and reused across frames,
// so a warm Step performs no heap allocations.
type Fusion struct {
	cam     *sensor.Camera
	objects []*Object
	nextID  int

	obs  []camObs  // per-frame back-projection scratch
	out  []Object  // per-frame snapshot scratch
	free []*Object // recycled objects
}

// New creates a fusion stage using the camera geometry for
// back-projection of image tracks.
func New(cam *sensor.Camera) *Fusion {
	return &Fusion{cam: cam, nextID: 1}
}

// Config returns the fusion configuration.
func (f *Fusion) Config() Config { return DefaultConfig() }

// Reset drops all fused objects, recycling them for the next episode.
func (f *Fusion) Reset() {
	f.free = append(f.free, f.objects...)
	f.objects = f.objects[:0]
	f.nextID = 1
}

// camObs is a camera track back-projected to the ground plane.
type camObs struct {
	trackID  int
	class    sim.Class
	rel      geom.Vec2
	width    float64
	coasting bool
}

// Step fuses the current camera tracks and LiDAR detections into the
// world model and returns a snapshot of it. dt is the frame period in
// seconds. The returned slice is reused by the next Step call; callers
// that retain a snapshot across frames must copy it.
func (f *Fusion) Step(tracks []*track.Track, lidar []sensor.Detection, dt float64) []Object {
	// Decay first: confirmation this frame must fight the decay.
	for _, o := range f.objects {
		o.Confidence *= decay
		o.Age++
		o.MissFrames++
		o.CameraSeen = false
		o.LidarSeen = false
		if o.lidarFresh > 0 {
			o.lidarFresh--
		}
	}

	// Back-project confirmed camera tracks to the ground plane.
	obs := f.obs[:0]
	for _, t := range tracks {
		if !t.Confirmed {
			continue
		}
		if t.Misses > 2 {
			// A track coasting on stale Kalman velocity extrapolates
			// unreliable ground positions; after a couple of frames the
			// fused object is better served by LiDAR and its own
			// velocity estimate.
			continue
		}
		box := t.Box()
		if f.cam.BoxClipped(box) {
			// A border-clipped silhouette back-projects garbage; leave
			// the object to LiDAR and prediction for these frames.
			continue
		}
		rel, ok := f.cam.BackProject(box)
		if !ok {
			continue
		}
		obs = append(obs, camObs{
			trackID:  t.ID,
			class:    t.Class,
			rel:      rel,
			width:    f.cam.WidthFromBox(t.Box(), rel.X),
			coasting: t.Coasting(),
		})
	}
	f.obs = obs

	// Camera evidence: prefer the object already backed by the same
	// image track — unless that binding has gone stale (the object has
	// drifted out of gate from where the track now projects) — then
	// fall back to nearest-in-gate.
	for _, ob := range obs {
		tgt := f.findByTrack(ob.trackID)
		if tgt != nil && !f.inGate(tgt.Rel, ob.rel) {
			tgt.CameraTrackID = 0
			tgt = nil
		}
		if tgt == nil {
			tgt = f.nearest(ob.rel, func(o *Object) bool { return !o.CameraSeen })
		}
		if tgt == nil {
			if ob.rel.X > camCreateMaxDepth {
				continue // mono-depth too unreliable to seed an object
			}
			tgt = f.newObject(ob.class, ob.rel)
		}
		tgt.CameraTrackID = ob.trackID
		// LiDAR owns classification while it has a fresh fix; a single
		// noisy camera box must not flip an established pedestrian into
		// a vehicle (or vice versa).
		if tgt.lidarFresh == 0 {
			tgt.Class = ob.class
		}
		// The camera always owns the lateral estimate; it only supplies
		// range when no recent LiDAR fix exists. Established objects
		// move at most maxLatStep/maxLongStep per frame.
		newRel := ob.rel
		if tgt.lidarFresh > 0 {
			newRel.X = tgt.Rel.X
		}
		if tgt.hasPrev && tgt.Confidence > 0.35 {
			newRel.Y = tgt.Rel.Y + geom.Clamp(newRel.Y-tgt.Rel.Y, -maxLatStep, maxLatStep)
			newRel.X = tgt.Rel.X + geom.Clamp(newRel.X-tgt.Rel.X, -maxLongStep, maxLongStep)
		}
		tgt.Rel = newRel
		tgt.Size = sizeFor(ob.class, ob.width)
		if !ob.coasting {
			tgt.CameraSeen = true
			tgt.Confidence += cameraGain
			tgt.MissFrames = 0
		}
	}

	// LiDAR evidence. Prefer fusing into an object the camera confirmed
	// this frame; only then consider camera-silent objects.
	for _, ld := range lidar {
		tgt := f.nearest(ld.RelPos, func(o *Object) bool { return o.CameraSeen && !o.LidarSeen })
		if tgt == nil {
			tgt = f.nearest(ld.RelPos, func(o *Object) bool { return !o.LidarSeen })
		}
		if tgt == nil {
			tgt = f.newObject(ld.Class, ld.RelPos)
			tgt.Size = ld.Size
		}
		tgt.LidarSeen = true
		tgt.lidarFresh = lidarOwnsRangeFrames
		if tgt.CameraSeen {
			// Agreement: full gain and a camera/LiDAR position blend.
			tgt.lidarStreak = 0
			tgt.Confidence += lidarGain
			tgt.Rel = geom.V(
				camLongitudinalWeight*tgt.Rel.X+(1-camLongitudinalWeight)*ld.RelPos.X,
				camLateralWeight*tgt.Rel.Y+(1-camLateralWeight)*ld.RelPos.Y,
			)
			tgt.MissFrames = 0
		} else {
			// Disagreement: the camera should see this and does not.
			// Persistent LiDAR-alone evidence eventually wins: after the
			// class's trust delay, the object re-registers on LiDAR.
			tgt.lidarStreak++
			gain, trust := lidarAloneGainVehicle, LidarTrustFramesVehicle
			if tgt.Class == sim.ClassPedestrian {
				gain, trust = lidarAloneGainPedestrian, LidarTrustFramesPedestrian
			}
			if tgt.lidarStreak >= trust {
				gain = lidarGain
			}
			tgt.Confidence += gain
			tgt.MissFrames = 0 // a LiDAR return is still a sensor fix
			tgt.Class = ld.Class
			tgt.Rel = ld.RelPos
			if ld.Size.Width > 0 {
				tgt.Size = ld.Size
			}
		}
	}

	f.mergeDuplicates()

	// Velocity smoothing, clamping and reaping.
	live := f.objects[:0]
	for _, o := range f.objects {
		o.Confidence = geom.Clamp(o.Confidence, 0, 1)
		if o.Age < probationFrames && o.Confidence > probationCap {
			o.Confidence = probationCap
		}
		if o.hasPrev && dt > 0 {
			raw := o.Rel.Sub(o.prevRel).Scale(1 / dt)
			if raw.X > -maxCredibleVelX && raw.X < maxCredibleVelX {
				o.Vel.X += velBeta * (raw.X - o.Vel.X)
			}
			if raw.Y > -maxCredibleVelY && raw.Y < maxCredibleVelY {
				o.Vel.Y += velBetaLateral * (raw.Y - o.Vel.Y)
			}
		}
		o.prevRel = o.Rel
		o.hasPrev = true
		ghost := o.MissFrames > ghostMissFrames && o.lidarFresh == 0
		if o.Confidence >= dropBelow && !ghost {
			live = append(live, o)
		} else {
			f.free = append(f.free, o)
		}
	}
	f.objects = live

	out := f.out[:0]
	for _, o := range f.objects {
		out = append(out, *o)
	}
	f.out = out
	return out
}

func (f *Fusion) findByTrack(trackID int) *Object {
	for _, o := range f.objects {
		if o.CameraTrackID == trackID {
			return o
		}
	}
	return nil
}

// inGate reports whether two ground positions fall within the
// anisotropic association gate.
func (f *Fusion) inGate(a, b geom.Vec2) bool {
	longGate := longGateFrac * b.X
	if longGate < longGateMin {
		longGate = longGateMin
	}
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx <= longGate && -dx <= longGate && dy <= lateralGate && -dy <= lateralGate
}

// nearest returns the closest eligible object within the anisotropic
// association gate, or nil. The longitudinal gate widens with depth
// (mono-camera ranging error); the lateral gate is tight, so lateral
// disagreement between camera and LiDAR splits the evidence into
// separate objects.
func (f *Fusion) nearest(rel geom.Vec2, eligible func(*Object) bool) *Object {
	var best *Object
	bestDist := 0.0
	longGate := longGateFrac * rel.X
	if longGate < longGateMin {
		longGate = longGateMin
	}
	for _, o := range f.objects {
		if eligible != nil && !eligible(o) {
			continue
		}
		dx := o.Rel.X - rel.X
		dy := o.Rel.Y - rel.Y
		if dx > longGate || -dx > longGate || dy > lateralGate || -dy > lateralGate {
			continue
		}
		if d := rel.Dist(o.Rel); best == nil || d < bestDist {
			best, bestDist = o, d
		}
	}
	return best
}

// mergeDuplicates collapses same-class objects that have converged onto
// (nearly) the same ground position — typically a stale LiDAR-spawned
// twin of a camera-backed object. The camera-backed (else
// higher-confidence) object survives and absorbs the twin's confidence.
func (f *Fusion) mergeDuplicates() {
	const latGate, longGate = 0.9, 2.2
	ndropped := 0
	for _, o := range f.objects {
		o.drop = false
	}
	for i := 0; i < len(f.objects); i++ {
		a := f.objects[i]
		if a.drop {
			continue
		}
		for j := i + 1; j < len(f.objects); j++ {
			b := f.objects[j]
			if b.drop || a.Class != b.Class {
				continue
			}
			dx, dy := a.Rel.X-b.Rel.X, a.Rel.Y-b.Rel.Y
			if dx > longGate || -dx > longGate || dy > latGate || -dy > latGate {
				continue
			}
			// Keep the established object (higher confidence, then older):
			// a newborn camera track must never overthrow a tracked
			// object's velocity history and streaks. The newborn's
			// sensor evidence is absorbed instead.
			keep, drop := a, b
			if b.Confidence > a.Confidence || (b.Confidence == a.Confidence && b.Age > a.Age) {
				keep, drop = b, a
			}
			if drop.CameraSeen && !keep.CameraSeen {
				keep.CameraSeen = true
				keep.CameraTrackID = drop.CameraTrackID
				keep.Confidence += cameraGain
				keep.MissFrames = 0
			}
			keep.LidarSeen = keep.LidarSeen || drop.LidarSeen
			drop.drop = true
			ndropped++
			if drop == a {
				break // a is gone; move to the next outer object
			}
		}
	}
	if ndropped == 0 {
		return
	}
	live := f.objects[:0]
	for _, o := range f.objects {
		if !o.drop {
			live = append(live, o)
		} else {
			f.free = append(f.free, o)
		}
	}
	f.objects = live
}

func (f *Fusion) newObject(cls sim.Class, rel geom.Vec2) *Object {
	var o *Object
	if n := len(f.free); n > 0 {
		o = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		o = &Object{}
	}
	*o = Object{ID: f.nextID, Class: cls, Rel: rel, Size: sizeFor(cls, 0)}
	f.nextID++
	f.objects = append(f.objects, o)
	return o
}

// sizeFor builds a plausible physical size from a class and an observed
// metric width (0 means unknown).
func sizeFor(cls sim.Class, width float64) sim.Size {
	base := sim.SizeCar
	if cls == sim.ClassPedestrian {
		base = sim.SizePedestrian
	}
	if width > 0.2 && width < 4 {
		base.Width = width
	}
	return base
}
