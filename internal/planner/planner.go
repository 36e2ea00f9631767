package planner

import (
	"math"

	"github.com/robotack/robotack/internal/fusion"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
)

// Mode is the planner's longitudinal driving mode.
type Mode int

// Planner modes. EmergencyBrake is the safety-hazard outcome the paper
// counts as "forced emergency braking (EB)".
const (
	ModeCruise Mode = iota + 1
	ModeFollow
	ModeBrake
	ModeEmergencyBrake
	ModeStop
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeCruise:
		return "cruise"
	case ModeFollow:
		return "follow"
	case ModeBrake:
		return "brake"
	case ModeEmergencyBrake:
		return "emergency-brake"
	case ModeStop:
		return "stop"
	default:
		return "unknown"
	}
}

// Config parametrizes the longitudinal planner.
type Config struct {
	// CruiseSpeed is the set speed in m/s.
	CruiseSpeed float64
}

// DefaultConfig returns the planner configuration for a scenario's
// cruise speed.
func DefaultConfig(cruiseSpeed float64) Config {
	return Config{CruiseSpeed: cruiseSpeed}
}

// Planner tuning used by the reproduction.
const (
	// driveDecel is the deceleration the planner uses willingly in
	// normal driving (gentler than the safety model's ComfortDecel,
	// which calibrates the d_stop metric).
	driveDecel float64 = 2.0
	// headway is the desired time gap behind a lead vehicle (s).
	headway float64 = 2.0
	// standstillGap is the desired gap at rest (m). With headway 2.0 s
	// and the DS-1 lead speed of ~7 m/s this settles at the paper's
	// ~20 m following distance.
	standstillGap float64 = 6.0
	// speedGain converts speed error to acceleration.
	speedGain float64 = 0.8
	// gapGain and closingGain form the ACC follow law.
	gapGain     float64 = 0.35
	closingGain float64 = 0.9
	// ebDecel is the deceleration demand (m/s^2) above which the
	// planner escalates to emergency braking.
	ebDecel float64 = 4.0
	// ebBrake is the emergency brake strength (m/s^2, positive).
	ebBrake float64 = 7.0
	// pedCautionLateral is the lateral half-width of the caution band
	// beyond the EV corridor.
	pedCautionLateral float64 = 2.2
	// pedCautionRange is the look-ahead for pedestrian caution (m).
	pedCautionRange float64 = 55
	// vyDeadband ignores lateral velocities below it when predicting
	// corridor entry (suppresses phantom cut-ins from differentiated
	// camera noise).
	vyDeadband float64 = 0.3
	// entryStreak is how many consecutive frames an object must be
	// predicted to enter the corridor before the planner reacts to it
	// (objects physically inside the corridor react immediately).
	entryStreak int = 3
	// ebConfirmFrames requires the EB condition to hold this many
	// consecutive frames before escalating, unless the demand is
	// overwhelming (>1.5x ebDecel).
	ebConfirmFrames int = 2
)

// pedCautionSpeed caps speed while a moving pedestrian is near the
// corridor (DS-4 golden behaviour: slow to ~35 kph).
var pedCautionSpeed = sim.Kph(35)

// Decision is the planner output for one frame.
type Decision struct {
	// Accel is the final (PID-smoothed) actuation command in m/s^2.
	Accel float64
	// Raw is the pre-smoothing desired acceleration.
	Raw  float64
	Mode Mode
	// DSafe, DStop and Delta are the perceived safety-model values
	// (from the fused world model, not ground truth).
	DSafe, DStop, Delta float64
	// TargetID is the fused object the planner is reacting to (0 when
	// the corridor is clear).
	TargetID int
}

// Planner is the longitudinal planner + PID actuation chain.
type Planner struct {
	cfg    Config
	safety SafetyConfig
	pid    *PID

	ebLatch     int         // frames remaining in the EB hold
	ebPending   int         // consecutive frames the EB condition held
	entryStreak map[int]int // per-object predicted-corridor-entry streak

	// Object permanence: perception drops out for runs of frames (the
	// Fig. 5 misdetection runs), so the planner remembers what it was
	// reacting to instead of re-accelerating into the void.
	cautionHold   int     // frames to keep the pedestrian speed cap
	crossingHold  int     // frames to keep braking for a lost crossing ped
	crossingRelX  float64 // extrapolated position of that pedestrian
	lostTargetFor int     // frames since a close corridor target vanished
	lostSpeed     float64 // that target's absolute speed
	// yRef is a slow per-pedestrian lateral reference; sustained
	// displacement of the estimate away from it reveals a crossing even
	// while the differentiated velocity estimate still lags.
	yRef map[int]float64

	// Per-frame scratch, reused across Plan calls so the warm planner
	// does not allocate.
	seen map[int]bool
	tgt  Target
}

// New creates a planner.
func New(cfg Config) *Planner {
	return &Planner{
		cfg:         cfg,
		safety:      DefaultSafetyConfig(),
		pid:         NewPID(),
		entryStreak: make(map[int]int),
		yRef:        make(map[int]float64),
		seen:        make(map[int]bool),
	}
}

// Reset clears controller state for a new episode.
func (p *Planner) Reset() {
	p.pid.Reset()
	p.ebLatch = 0
	p.ebPending = 0
	clear(p.entryStreak)
	p.cautionHold = 0
	p.crossingHold = 0
	p.lostTargetFor = 0
	clear(p.yRef)
}

// Reconfigure swaps the planner's configuration and resets all
// controller state — episode-scratch reuse across scenarios whose
// cruise speed differs.
func (p *Planner) Reconfigure(cfg Config) {
	p.cfg = cfg
	p.Reset()
}

// selectTarget picks the nearest confident in-path object, requiring
// predicted (not yet physical) corridor entries to persist for
// entryStreak frames before they count — one noisy frame of lateral
// velocity must not brake the EV.
func (p *Planner) selectTarget(objs []fusion.Object, fcfg *fusion.Config, ev *sim.EV, road *sim.Road) (float64, *Target) {
	clear(p.seen)
	seen := p.seen
	best := p.safety.MaxDSafe
	var target *Target
	for i := range objs {
		o := &objs[i]
		if !o.Confident(fcfg) {
			continue
		}
		inNow := road.InEVCorridor(o.Rel.Y, o.Size.Width, ev.Size.Width)
		eligible := inNow
		if !inNow && o.Vel.X+ev.Speed < -1.5 {
			// Oncoming traffic keeps its own lane; corridor-entry
			// prediction does not apply to it (lane-associated
			// prediction, as in Apollo's prediction module).
			continue
		}
		if !inNow {
			vy := o.Vel.Y
			if math.Abs(vy) < vyDeadband {
				vy = 0
			}
			horizon := CorridorHorizonFor(o.Class)
			if InCorridorNowOrSoon(o.Rel.Y, vy, o.Size.Width, ev.Size.Width, horizon, *road) {
				seen[o.ID] = true
				if p.entryStreak[o.ID] < 2*entryStreak {
					p.entryStreak[o.ID]++
				}
				eligible = p.entryStreak[o.ID] >= entryStreak
			} else if s := p.entryStreak[o.ID]; s > 0 {
				// Hysteresis: decay instead of reset, so one noisy frame
				// does not drop an entering object.
				seen[o.ID] = true
				p.entryStreak[o.ID] = s - 1
				eligible = s-1 >= entryStreak
			}
		}
		if !eligible {
			continue
		}
		gap := o.Rel.X - o.Size.Length/2 - ev.Size.Length/2
		if gap < -o.Size.Length {
			continue
		}
		gap = math.Max(gap, 0)
		if gap < best {
			best = gap
			p.tgt = Target{Object: *o, Gap: gap, Closing: -o.Vel.X}
			target = &p.tgt
		}
	}
	for id := range p.entryStreak {
		if !seen[id] {
			delete(p.entryStreak, id)
		}
	}
	return best, target
}

// Plan computes the actuation command from the fused world model.
func (p *Planner) Plan(objs []fusion.Object, fcfg fusion.Config, ev sim.EV, road sim.Road) Decision {
	dsafe, target := p.selectTarget(objs, &fcfg, &ev, &road)
	dstop := p.safety.DStop(ev.Speed)
	delta := dsafe - dstop

	targetSpeed := p.cfg.CruiseSpeed
	mode := ModeCruise
	if p.pedestrianCaution(objs, &ev, &road) {
		p.cautionHold = 30
	} else if p.cautionHold > 0 {
		p.cautionHold--
	}
	if p.cautionHold > 0 && targetSpeed > pedCautionSpeed {
		targetSpeed = pedCautionSpeed
	}

	// Object permanence for a recently lost close corridor target: do
	// not accelerate past its last known speed while it may still be
	// there (perception dropout, not disappearance).
	if target == nil && p.lostTargetFor > 0 {
		p.lostTargetFor--
		if cap := p.lostSpeed + 1.5; targetSpeed > cap {
			targetSpeed = math.Max(cap, 1)
		}
	}

	// Base law: track the target speed. Re-acceleration is capped at a
	// comfortable rate — the EV does not floor the pedal the instant
	// the corridor looks clear.
	raw := geom.Clamp(speedGain*(targetSpeed-ev.Speed), -driveDecel, cruiseAccelCap)
	targetID := 0

	// Precautionary braking for an actively crossing pedestrian: begin
	// a comfortable stop before its longitudinal position well before
	// the corridor-entry logic fires (DS-2 golden: stop >10 m away).
	// The reaction latches and extrapolates through perception gaps.
	if ped := p.crossingPedestrian(objs, &ev, &road); ped != nil {
		p.crossingHold = 15
		p.crossingRelX = ped.Rel.X
	} else if p.crossingHold > 0 {
		p.crossingHold--
		p.crossingRelX -= ev.Speed * sim.DT
	}
	if p.crossingHold > 0 {
		room := math.Max(p.crossingRelX-ev.Size.Length/2-9, 0.3)
		req := ev.Speed * ev.Speed / (2 * room)
		if req > 0.5*driveDecel {
			raw = math.Min(raw, -math.Max(req, 0.8))
			mode = ModeBrake
		}
	}

	if target != nil {
		targetID = target.Object.ID
		desiredGap := standstillGap + headway*ev.Speed
		gapErr := target.Gap - desiredGap

		// Physics of the encounter: deceleration needed to stop before
		// the obstacle's rear with margin.
		margin := standstillGap * 0.5
		room := math.Max(target.Gap-margin, 0.3)
		closing := math.Max(target.Closing, ev.Speed*0.3)
		required := 0.0
		if closing > 0 {
			required = closing * closing / (2 * room)
		}

		// ACC follow law, floored by the physical requirement so the
		// planner does not over-brake for distant slow targets.
		follow := gapGain*gapErr - closingGain*target.Closing
		if floor := -(required*1.2 + 0.3); follow < floor {
			follow = floor
		}
		if follow < raw {
			raw = follow
			mode = ModeFollow
		}

		// Pedestrians physically inside the corridor demand a full stop
		// well short of them — no creeping (DS-2 golden: stop >10 m away).
		if target.Object.Class == sim.ClassPedestrian &&
			road.InEVCorridor(target.Object.Rel.Y, target.Object.Size.Width, ev.Size.Width) &&
			ev.Speed > 0.2 {
			stopRoom := math.Max(target.Gap-9, 0.3)
			reqPed := ev.Speed * ev.Speed / (2 * stopRoom)
			raw = math.Min(raw, -math.Max(reqPed, driveDecel))
			if required < reqPed {
				required = reqPed
			}
			mode = ModeBrake
		}

		// Escalate through Brake to EmergencyBrake. The EB condition
		// must persist ebConfirmFrames unless the demand is extreme,
		// and only close-range demands qualify (a 4+ m/s^2 "need" at
		// long range is a perception artifact, not an emergency).
		if required > driveDecel {
			raw = math.Min(raw, -required)
			mode = ModeBrake
		}
		if required > ebDecel && target.Gap < 32 {
			p.ebPending++
			if p.ebPending >= ebConfirmFrames || required > 1.5*ebDecel {
				mode = ModeEmergencyBrake
			}
		} else {
			p.ebPending = 0
		}

		// Remember close corridor targets for object permanence
		// (~1.3 s of retention, comparable to production obstacle
		// buffers).
		if target.Gap < 40 {
			p.lostTargetFor = 20
			p.lostSpeed = math.Max(ev.Speed-target.Closing, 0)
		}
		if target.Gap <= standstillGap && ev.Speed < 0.5 {
			mode = ModeStop
			raw = -driveDecel
		}
	}

	// Emergency braking latches for a few frames so a single noisy
	// frame cannot flicker the brake off mid-stop.
	if mode == ModeEmergencyBrake {
		p.ebLatch = 5
	} else if p.ebLatch > 0 {
		p.ebLatch--
		if ev.Speed > 0.5 {
			mode = ModeEmergencyBrake
		}
	}

	var accel float64
	if mode == ModeEmergencyBrake {
		raw = -ebBrake
		accel = p.pid.Override(raw)
	} else {
		accel = p.pid.Update(raw, sim.DT)
	}
	return Decision{
		Accel:    accel,
		Raw:      raw,
		Mode:     mode,
		DSafe:    dsafe,
		DStop:    dstop,
		Delta:    delta,
		TargetID: targetID,
	}
}

// cruiseAccelCap bounds comfortable re-acceleration (m/s^2).
const cruiseAccelCap = 1.2

// crossingConfidence is the evidence level at which a crossing
// pedestrian triggers precautionary braking.
const crossingConfidence float64 = 0.45

// pedCautionConfidence is the evidence level at which a moving
// pedestrian already warrants slowing down — deliberately below the
// reaction threshold for braking targets (defence in depth for
// vulnerable road users).
const pedCautionConfidence = 0.25

// crossingPedestrian returns the nearest confident pedestrian ahead
// that is laterally heading for the EV corridor (|vy| above deadband,
// moving toward the lane center, inside the caution band).
func (p *Planner) crossingPedestrian(objs []fusion.Object, ev *sim.EV, road *sim.Road) *fusion.Object {
	var best *fusion.Object
	for i := range objs {
		o := &objs[i]
		if o.Class != sim.ClassPedestrian || o.Confidence < crossingConfidence {
			continue
		}
		if o.Rel.X < 2 || o.Rel.X > pedCautionRange {
			continue
		}
		// Maintain the slow lateral reference for displacement
		// detection.
		ref, ok := p.yRef[o.ID]
		if !ok {
			ref = o.Rel.Y
		}
		ref += 0.02 * (o.Rel.Y - ref)
		p.yRef[o.ID] = ref

		toCenter := road.EVLaneCenter() - o.Rel.Y
		velCrossing := math.Abs(o.Vel.Y) >= vyDeadband && toCenter*o.Vel.Y > 0
		dispCrossing := math.Abs(ref-road.EVLaneCenter())-math.Abs(o.Rel.Y-road.EVLaneCenter()) > 0.55
		if !velCrossing && !dispCrossing {
			continue // not moving toward the lane center
		}
		if math.Abs(o.Rel.Y-road.EVLaneCenter()) > (ev.Size.Width+0.6)/2+pedCautionLateral+1.5 {
			continue
		}
		if best == nil || o.Rel.X < best.Rel.X {
			best = o
		}
	}
	return best
}

// pedestrianCaution reports whether a plausibly-real moving pedestrian
// is close enough to the corridor to warrant a speed cap.
func (p *Planner) pedestrianCaution(objs []fusion.Object, ev *sim.EV, road *sim.Road) bool {
	half := (ev.Size.Width+0.6)/2 + pedCautionLateral
	for i := range objs {
		o := &objs[i]
		if o.Class != sim.ClassPedestrian || o.Confidence < pedCautionConfidence {
			continue
		}
		if o.Rel.X < 2 || o.Rel.X > pedCautionRange {
			continue
		}
		moving := o.Vel.Sub(geom.V(-ev.Speed, 0)).Norm() > 0.4 // absolute motion
		if moving && math.Abs(o.Rel.Y-road.EVLaneCenter()) < half {
			return true
		}
	}
	return false
}
