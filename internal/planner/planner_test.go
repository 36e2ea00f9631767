package planner

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/fusion"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sim"
)

// truthObjects fabricates a perfect fused world model from simulator
// ground truth, letting planner tests run without the perception stack.
func truthObjects(w *sim.World) []fusion.Object {
	rel := w.RelativeInto(nil)
	out := make([]fusion.Object, 0, len(rel))
	for i, r := range rel {
		out = append(out, fusion.Object{
			ID: i + 1, Class: r.Class, Rel: r.Pos, Vel: r.Vel,
			Size: r.Size, Confidence: 1,
		})
	}
	return out
}

func TestDStop(t *testing.T) {
	cfg := DefaultSafetyConfig()
	if got := cfg.DStop(0); got != 0 {
		t.Errorf("DStop(0) = %v", got)
	}
	// v=10: 100/(2*5) = 10.
	if got := cfg.DStop(10); math.Abs(got-10) > 1e-9 {
		t.Errorf("DStop(10) = %v, want 10", got)
	}
	if got := cfg.Delta(50, 10); math.Abs(got-40) > 1e-9 {
		t.Errorf("Delta = %v, want 40", got)
	}
}

func TestInCorridorNowOrSoon(t *testing.T) {
	road := sim.DefaultRoad()
	tests := []struct {
		name    string
		y, vy   float64
		width   float64
		horizon float64
		want    bool
	}{
		{"in-lane", 0, 0, 1.9, 1.5, true},
		{"parked-adjacent", 3.5, 0, 1.9, 1.5, false},
		{"cutting-in", 3.5, -1.5, 1.9, 1.5, true},
		{"moving-away", 3.5, 1.0, 1.9, 1.5, false},
		{"crossing-ped-far", 6, -1.4, 0.6, 3.0, false},
		{"crossing-ped-near", 5, -1.4, 0.6, 3.0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := InCorridorNowOrSoon(tt.y, tt.vy, tt.width, 1.9, tt.horizon, road)
			if got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

// TestDSafeSelectsNearestConfident: Definition 4 on a fused world model,
// as Plan computes it — d_safe is the gap to the nearest confident
// in-corridor object ahead, and that object is the target.
func TestDSafeSelectsNearestConfident(t *testing.T) {
	fcfg := fusion.DefaultConfig()
	ev := sim.DefaultEV()
	road := sim.DefaultRoad()
	objs := []fusion.Object{
		{ID: 1, Class: sim.ClassVehicle, Rel: geom.V(50, 0), Size: sim.SizeCar, Confidence: 1},
		{ID: 2, Class: sim.ClassVehicle, Rel: geom.V(30, 0), Size: sim.SizeCar, Confidence: 1},
		{ID: 3, Class: sim.ClassVehicle, Rel: geom.V(20, 0), Size: sim.SizeCar, Confidence: 0.3}, // not confident
		{ID: 4, Class: sim.ClassVehicle, Rel: geom.V(25, 3.5), Size: sim.SizeCar, Confidence: 1}, // out of lane
	}
	d := New(DefaultConfig(sim.Kph(45))).Plan(objs, fcfg, ev, road)
	if d.TargetID != 2 {
		t.Fatalf("target = %d, want object 2", d.TargetID)
	}
	want := 30 - sim.SizeCar.Length/2 - ev.Size.Length/2
	if math.Abs(d.DSafe-want) > 1e-9 {
		t.Errorf("dsafe = %v, want %v", d.DSafe, want)
	}
}

// TestDSafeClearCorridor: with no objects Plan has no target and d_safe
// is MaxDSafe.
func TestDSafeClearCorridor(t *testing.T) {
	cfg := DefaultConfig(sim.Kph(45))
	d := New(cfg).Plan(nil, fusion.DefaultConfig(), sim.DefaultEV(), sim.DefaultRoad())
	if d.TargetID != 0 || d.DSafe != DefaultSafetyConfig().MaxDSafe {
		t.Errorf("dsafe = %v target = %d, want max and none", d.DSafe, d.TargetID)
	}
}

func TestGroundTruthDelta(t *testing.T) {
	ev := sim.DefaultEV()
	ev.Speed = 10
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(40, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	scfg := DefaultSafetyConfig()
	gap, _, _ := w.GroundTruthGap()
	want := gap - scfg.DStop(10)
	if got := scfg.GroundTruthDelta(w); math.Abs(got-want) > 1e-9 {
		t.Errorf("delta = %v, want %v", got, want)
	}
}

func runPlanner(t *testing.T, w *sim.World, cruise float64, frames int) (*Planner, []Decision) {
	t.Helper()
	p := New(DefaultConfig(cruise))
	fcfg := fusion.DefaultConfig()
	decisions := make([]Decision, 0, frames)
	for i := 0; i < frames && !w.Halted; i++ {
		d := p.Plan(truthObjects(w), fcfg, w.EV, w.Road)
		w.Step(d.Accel)
		decisions = append(decisions, d)
	}
	return p, decisions
}

func TestCruiseReachesTargetSpeed(t *testing.T) {
	ev := sim.DefaultEV()
	ev.Speed = 5
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	_, _ = runPlanner(t, w, sim.Kph(45), 15*20)
	if math.Abs(w.EV.Speed-sim.Kph(45)) > 0.3 {
		t.Errorf("speed = %v, want %v", w.EV.Speed, sim.Kph(45))
	}
}

// DS-1 golden behaviour: approach the lead vehicle and settle ~20 m
// behind it at its speed, with no emergency braking.
func TestFollowSettlesAtTwentyMeters(t *testing.T) {
	ev := sim.DefaultEV()
	ev.Speed = sim.Kph(45)
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	tvSpeed := sim.Kph(25)
	tv := &sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(60, 0), Size: sim.SizeSUV,
		Behavior: &sim.Cruise{Speed: tvSpeed}}
	w.AddActor(tv)

	_, decisions := runPlanner(t, w, sim.Kph(45), 15*40)
	if w.Halted {
		t.Fatal("golden run must not crash")
	}
	for _, d := range decisions {
		if d.Mode == ModeEmergencyBrake {
			t.Fatal("golden run must not emergency-brake")
		}
	}
	gap, _, ok := w.GroundTruthGap()
	if !ok {
		t.Fatal("lead vehicle lost")
	}
	if gap < 15 || gap > 26 {
		t.Errorf("settled gap = %v, want ~20 (paper DS-1 golden)", gap)
	}
	if math.Abs(w.EV.Speed-tvSpeed) > 0.5 {
		t.Errorf("settled speed = %v, want %v", w.EV.Speed, tvSpeed)
	}
}

// DS-2 golden behaviour: brake for the crossing pedestrian and stop
// more than 10 m away.
func TestBrakesForCrossingPedestrian(t *testing.T) {
	ev := sim.DefaultEV()
	ev.Speed = sim.Kph(45)
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	ped := &sim.Actor{Class: sim.ClassPedestrian, Pos: geom.V(90, 6), Size: sim.SizePedestrian,
		Behavior: &sim.TriggeredCross{TriggerGap: 47, CrossSpeed: 1.4, ToY: -6}}
	w.AddActor(ped)

	p := New(DefaultConfig(sim.Kph(45)))
	fcfg := fusion.DefaultConfig()
	minGap := math.Inf(1)
	minSpeed := math.Inf(1)
	for i := 0; i < 15*25 && !w.Halted; i++ {
		d := p.Plan(truthObjects(w), fcfg, w.EV, w.Road)
		w.Step(d.Accel)
		if g, _, ok := w.GroundTruthGap(); ok && g < minGap {
			minGap = g
		}
		if w.EV.Speed < minSpeed {
			minSpeed = w.EV.Speed
		}
	}
	if w.Halted {
		t.Fatal("golden run must not hit the pedestrian")
	}
	if minSpeed > 2.5 {
		t.Errorf("min speed %v m/s; EV should brake to a crawl or stop for the crossing pedestrian", minSpeed)
	}
	if minGap < 8 {
		t.Errorf("closest approach %v m; golden run yields >10 m away (small tolerance)", minGap)
	}
}

// DS-3 golden behaviour: a parked car in the parking lane causes no
// reaction.
func TestIgnoresParkedCarInParkingLane(t *testing.T) {
	ev := sim.DefaultEV()
	ev.Speed = sim.Kph(45)
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(75, 3.5), Size: sim.SizeCar, Behavior: sim.Parked{}})
	_, decisions := runPlanner(t, w, sim.Kph(45), 15*15)
	for _, d := range decisions {
		if d.Mode != ModeCruise {
			t.Fatalf("mode = %v, want cruise throughout", d.Mode)
		}
	}
	if math.Abs(w.EV.Speed-sim.Kph(45)) > 0.5 {
		t.Errorf("speed = %v, want unchanged", w.EV.Speed)
	}
}

// DS-4 golden behaviour: slow toward ~35 kph while the pedestrian walks
// in the parking lane, resume after they stop.
func TestPedestrianCautionSlowsAndResumes(t *testing.T) {
	ev := sim.DefaultEV()
	ev.Speed = sim.Kph(45)
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassPedestrian, Pos: geom.V(70, 3.3), Size: sim.SizePedestrian,
		Behavior: &sim.WalkThenStop{Speed: 1.2, Distance: 5}})

	p := New(DefaultConfig(sim.Kph(45)))
	fcfg := fusion.DefaultConfig()
	minSpeed := math.Inf(1)
	for i := 0; i < 15*20 && !w.Halted; i++ {
		d := p.Plan(truthObjects(w), fcfg, w.EV, w.Road)
		w.Step(d.Accel)
		if w.EV.Speed < minSpeed {
			minSpeed = w.EV.Speed
		}
	}
	if w.Halted {
		t.Fatal("golden run must not crash")
	}
	if minSpeed > sim.Kph(38) {
		t.Errorf("min speed = %v kph, want to slow toward 35 kph", minSpeed*3.6)
	}
	if w.EV.Speed < sim.Kph(42) {
		t.Errorf("final speed = %v kph, should resume cruise", w.EV.Speed*3.6)
	}
}

func TestEmergencyBrakeOnSuddenObstacle(t *testing.T) {
	p := New(DefaultConfig(sim.Kph(45)))
	fcfg := fusion.DefaultConfig()
	ev := sim.DefaultEV()
	ev.Speed = 12.5
	objs := []fusion.Object{{
		ID: 1, Class: sim.ClassVehicle, Rel: geom.V(15, 0), Vel: geom.V(-12.5, 0),
		Size: sim.SizeCar, Confidence: 1,
	}}
	d := p.Plan(objs, fcfg, ev, sim.DefaultRoad())
	if d.Mode != ModeEmergencyBrake {
		t.Fatalf("mode = %v, want emergency-brake", d.Mode)
	}
	if d.Accel > -ebBrake+1e-9 {
		t.Errorf("accel = %v, want immediate max braking (PID bypass)", d.Accel)
	}
}

func TestEmergencyBrakeLatch(t *testing.T) {
	p := New(DefaultConfig(sim.Kph(45)))
	fcfg := fusion.DefaultConfig()
	ev := sim.DefaultEV()
	ev.Speed = 12.5
	objs := []fusion.Object{{
		ID: 1, Class: sim.ClassVehicle, Rel: geom.V(15, 0), Vel: geom.V(-12.5, 0),
		Size: sim.SizeCar, Confidence: 1,
	}}
	if d := p.Plan(objs, fcfg, ev, sim.DefaultRoad()); d.Mode != ModeEmergencyBrake {
		t.Fatal("setup: expected EB")
	}
	// Object vanishes for one frame (noise); EB should hold while fast.
	if d := p.Plan(nil, fcfg, ev, sim.DefaultRoad()); d.Mode != ModeEmergencyBrake {
		t.Errorf("mode = %v, want EB latched", d.Mode)
	}
}

func TestPIDSmoothsStep(t *testing.T) {
	pid := NewPID()
	first := pid.Update(3, sim.DT)
	if first >= 3 {
		t.Errorf("first output %v should not jump to setpoint", first)
	}
	var out float64
	for i := 0; i < 60; i++ {
		out = pid.Update(3, sim.DT)
	}
	if math.Abs(out-3) > 0.3 {
		t.Errorf("converged output = %v, want ~3", out)
	}
}

func TestPIDOverrideAndReset(t *testing.T) {
	pid := NewPID()
	pid.Update(2, sim.DT)
	if got := pid.Override(-7); got != -7 {
		t.Errorf("Override = %v", got)
	}
	if pid.output != -7 {
		t.Errorf("output = %v", pid.output)
	}
	pid.Reset()
	if pid.output != 0 {
		t.Errorf("after Reset output = %v", pid.output)
	}
}

func BenchmarkPlan(b *testing.B) {
	p := New(DefaultConfig(sim.Kph(45)))
	fcfg := fusion.DefaultConfig()
	ev := sim.DefaultEV()
	ev.Speed = 12.5
	objs := []fusion.Object{
		{ID: 1, Class: sim.ClassVehicle, Rel: geom.V(40, 0), Vel: geom.V(-5, 0), Size: sim.SizeCar, Confidence: 1},
		{ID: 2, Class: sim.ClassPedestrian, Rel: geom.V(30, 4), Vel: geom.V(-12.5, 0), Size: sim.SizePedestrian, Confidence: 1},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Plan(objs, fcfg, ev, sim.DefaultRoad())
	}
}
