package track

import (
	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
)

// Config holds the detector error model the tracker's measurement
// noise and debiasing assume.
type Config struct {
	// Vehicle and Pedestrian measurement noise (normalized units, from
	// the Fig. 5 characterization) used to set the Kalman R matrix.
	VehicleNoise    detect.NoiseParams
	PedestrianNoise detect.NoiseParams
}

// DefaultConfig returns the configuration used by the reproduction's
// ADS and by the malware's replica of its tracker.
func DefaultConfig() Config {
	return Config{
		VehicleNoise:    detect.VehicleNoise,
		PedestrianNoise: detect.PedestrianNoise,
	}
}

// Tracker lifecycle and association tuning. The threat model grants
// the attacker the ADS source code, so the malware's replica tracker
// and trajectory hijacker use the same constants.
const (
	// minHits detections before a track is confirmed.
	minHits int = 2
	// maxMisses consecutive predicted-only frames before deletion. This
	// is the temporal redundancy ("redundancy in time", §I) that masks
	// transient misdetections — and that the Disappear attack must
	// outlast.
	maxMisses int = 12
	// vehicleGateWidths and pedestrianGateWidths are the association
	// gate as a multiple of the predicted box width, per class. They
	// reflect the class's measured noise: the noisier the detector for
	// a class, the wider the tracker must gate.
	vehicleGateWidths    float64 = 2.0
	pedestrianGateWidths float64 = 4.0
	// gateFloorPx is the minimum gate in pixels.
	gateFloorPx float64 = 10
	// dimsAlpha is the EMA factor for box dimensions.
	dimsAlpha float64 = 0.3
)

// Gate returns the maximum center distance (pixels) at which a
// detection can associate with a track whose predicted box has the
// given width, for the given class. The trajectory hijacker uses the
// same formula (threat model: attacker knows the ADS internals) as its
// lambda constraint in Eq. 4.
func Gate(cls sim.Class, boxW float64) float64 {
	k := vehicleGateWidths
	if cls == sim.ClassPedestrian {
		k = pedestrianGateWidths
	}
	return geom.Max(k*boxW, gateFloorPx)
}

// NoiseStd returns the per-axis measurement noise standard deviation in
// pixels for a box of the given size, per the Fig. 5 class models.
func (c *Config) NoiseStd(cls sim.Class, box geom.Rect) (sigmaU, sigmaV float64) {
	np := c.VehicleNoise
	if cls == sim.ClassPedestrian {
		np = c.PedestrianNoise
	}
	return np.SigmaX * box.W, np.SigmaY * box.H
}

// Measurement converts a detection into the filter's measurement
// vector (horizontal center u, sub-pixel bottom edge v_b), removing the
// characterized per-class mean of the detector's error — the
// calibration any production perception stack applies once the Fig. 5
// characterization is known. Without it, the non-zero means (e.g.
// pedestrian MuY = 0.186) bias the mono-camera depth systematically.
func (c *Config) Measurement(cls sim.Class, d *detect.Detection) geom.Vec2 {
	np := c.VehicleNoise
	if cls == sim.ClassPedestrian {
		np = c.PedestrianNoise
	}
	u := d.CenterU
	if u == 0 { // detections fabricated without refinement (tests)
		u = d.Box.Center().X
	}
	return geom.V(u-np.MuX*d.Box.W, d.Bottom-np.MuY*d.Box.H)
}

// Track is one tracked object ("s_t^i" in the paper). Its Kalman state
// is the horizontal box center and the sub-pixel bottom edge — the two
// image coordinates that determine the ground position.
type Track struct {
	ID    int
	Class sim.Class

	kf Kalman
	// W, H are the EMA-smoothed box dimensions in pixels.
	W, H float64

	Hits      int
	Misses    int
	Age       int
	Confirmed bool

	// dup marks the track for duplicate suppression within one Step.
	dup bool
}

// Box returns the current smoothed bounding box: centered horizontally
// on the filter's u estimate, with its bottom edge at the filter's v_b
// estimate.
func (t *Track) Box() geom.Rect {
	s := t.kf.Center()
	return geom.R(s.X-t.W/2, s.Y-t.H, t.W, t.H)
}

// Coasting reports whether the track is currently surviving on
// prediction only.
func (t *Track) Coasting() bool { return t.Misses > 0 }

// Tracker is the multi-object tracker: Hungarian association of
// detections to Kalman-filtered tracks with a tentative/confirmed/
// deleted lifecycle. All per-frame working storage — the cost matrix,
// the assignment solver's arrays, and dead Track objects — is owned by
// the struct and reused across frames, so a warm Step performs no heap
// allocations.
type Tracker struct {
	cfg    Config
	tracks []*Track
	nextID int

	// Per-frame scratch, reused across Step calls.
	hung     hungarianScratch
	costFlat []float64
	costRows [][]float64
	assigned []int
	usedDet  []bool
	free     []*Track // recycled tracks
}

// NewTracker creates an empty tracker.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg, nextID: 1}
}

// Tracks returns the live tracks (both tentative and confirmed).
func (tr *Tracker) Tracks() []*Track { return tr.tracks }

// Step advances all tracks one frame and associates the new detections.
// It returns the live track set after the update; the set is valid
// until the next Step or Reset call (dead tracks are recycled).
func (tr *Tracker) Step(dets []detect.Detection) []*Track {
	for _, t := range tr.tracks {
		t.kf.Predict()
		t.Age++
	}

	// Build the association cost matrix: cost = (1 - IoU) + normalized
	// center distance; pairs beyond the class gate are forbidden.
	nT, nD := len(tr.tracks), len(dets)
	assigned := tr.assigned[:0]
	for i := 0; i < nT; i++ {
		assigned = append(assigned, -1)
	}
	tr.assigned = assigned
	if nT > 0 && nD > 0 {
		if cap(tr.costFlat) < nT*nD {
			tr.costFlat = make([]float64, nT*nD)
		}
		flat := tr.costFlat[:nT*nD]
		cost := tr.costRows[:0]
		for i, t := range tr.tracks {
			row := flat[i*nD : (i+1)*nD]
			pbox := t.Box()
			gate := Gate(t.Class, pbox.W)
			for j := range dets {
				d := &dets[j]
				dist := pbox.Center().Dist(d.Box.Center())
				iou := pbox.IoU(d.Box)
				if dist > gate {
					row[j] = Forbidden
					continue
				}
				// A coasting track's predicted position is already
				// speculation; it may only reclaim a detection that
				// actually overlaps it, otherwise it would steal
				// detections from live tracks and zombie on.
				if t.Misses > 1 && iou <= 0.05 {
					row[j] = Forbidden
					continue
				}
				row[j] = (1 - iou) + dist/gate
			}
			cost = append(cost, row)
		}
		tr.costRows = cost
		res := tr.hung.solve(cost)
		for i, j := range res {
			if j >= 0 && cost[i][j] < Forbidden {
				assigned[i] = j
			}
		}
	}

	usedDet := tr.usedDet[:0]
	for j := 0; j < nD; j++ {
		usedDet = append(usedDet, false)
	}
	tr.usedDet = usedDet
	for i, t := range tr.tracks {
		j := assigned[i]
		if j < 0 {
			t.Misses++
			t.Hits = 0
			continue
		}
		usedDet[j] = true
		d := &dets[j]
		su, sv := tr.cfg.NoiseStd(t.Class, d.Box)
		// A singular innovation covariance cannot occur with R floored
		// at 1 px^2; treat it as a miss if it ever does.
		if err := t.kf.Update(tr.cfg.Measurement(t.Class, d), su, sv); err != nil {
			t.Misses++
			continue
		}
		t.W += dimsAlpha * (d.Box.W - t.W)
		t.H += dimsAlpha * (d.Box.H - t.H)
		t.Misses = 0
		t.Hits++
		if t.Hits >= minHits {
			t.Confirmed = true
		}
	}

	// Unmatched detections spawn tentative tracks (recycling dead ones
	// when available).
	for j := range dets {
		if usedDet[j] {
			continue
		}
		d := &dets[j]
		t := tr.spawn(tr.cfg.Measurement(d.Class, d))
		t.ID = tr.nextID
		t.Class = d.Class
		t.W = d.Box.W
		t.H = d.Box.H
		t.Hits = 1
		tr.tracks = append(tr.tracks, t)
		tr.nextID++
	}

	// Reap dead tracks and suppress duplicates: two confirmed tracks on
	// (nearly) the same box are one object; the older one wins.
	live := tr.tracks[:0]
	for _, t := range tr.tracks {
		if t.Misses <= maxMisses {
			live = append(live, t)
		} else {
			tr.free = append(tr.free, t)
		}
	}
	tr.tracks = live
	ndup := 0
	for _, t := range tr.tracks {
		t.dup = false
	}
	for i, a := range tr.tracks {
		for _, b := range tr.tracks[i+1:] {
			if a.dup || b.dup || a.Box().IoU(b.Box()) < 0.5 {
				continue
			}
			victim := b
			if a.Age < b.Age {
				victim = a
			}
			victim.dup = true
			ndup++
		}
	}
	if ndup > 0 {
		live = tr.tracks[:0]
		for _, t := range tr.tracks {
			if !t.dup {
				live = append(live, t)
			} else {
				tr.free = append(tr.free, t)
			}
		}
		tr.tracks = live
	}
	return tr.tracks
}

// spawn returns a Track initialized at the measured center, reusing a
// recycled Track when one is free.
func (tr *Tracker) spawn(meas geom.Vec2) *Track {
	var t *Track
	if n := len(tr.free); n > 0 {
		t = tr.free[n-1]
		tr.free = tr.free[:n-1]
		*t = Track{}
	} else {
		t = new(Track)
	}
	t.kf.Reset(meas)
	return t
}

// Reset drops all tracks (start of a new episode), recycling them for
// the next one.
func (tr *Tracker) Reset() {
	tr.free = append(tr.free, tr.tracks...)
	tr.tracks = tr.tracks[:0]
	tr.nextID = 1
}
