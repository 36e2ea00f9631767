package sim

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/geom"
)

func newTestWorld() *World {
	ev := DefaultEV()
	ev.Speed = 10
	return NewWorld(DefaultRoad(), ev)
}

func TestKph(t *testing.T) {
	if got := Kph(36); math.Abs(got-10) > 1e-9 {
		t.Errorf("Kph(36) = %v, want 10", got)
	}
}

func TestEVIntegration(t *testing.T) {
	w := newTestWorld()
	for i := 0; i < 15; i++ { // one second at 1 m/s^2
		w.Step(1.0)
	}
	if math.Abs(w.EV.Speed-11) > 1e-9 {
		t.Errorf("Speed = %v, want 11", w.EV.Speed)
	}
	// x ≈ v0*t + a*t²/2 with forward-Euler discretization error of a*dt*t/2.
	want := 10.0 + 0.5 + 0.5*DT
	if math.Abs(w.EV.Pos.X-want) > 1e-6 {
		t.Errorf("X = %v, want %v", w.EV.Pos.X, want)
	}
	if math.Abs(w.Time()-1) > 1e-9 {
		t.Errorf("Time = %v, want 1", w.Time())
	}
}

func TestEVAccelClamping(t *testing.T) {
	w := newTestWorld()
	w.Step(100) // way over MaxAccel
	if w.EV.Accel != w.EV.MaxAccel {
		t.Errorf("Accel = %v, want clamped to %v", w.EV.Accel, w.EV.MaxAccel)
	}
	w.Step(-100)
	if w.EV.Accel != -w.EV.MaxBrake {
		t.Errorf("Accel = %v, want clamped to %v", w.EV.Accel, -w.EV.MaxBrake)
	}
}

func TestEVSpeedNeverNegative(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 0.5
	for i := 0; i < 30; i++ {
		w.Step(-8)
	}
	if w.EV.Speed != 0 {
		t.Errorf("Speed = %v, want 0", w.EV.Speed)
	}
	if w.EV.Pos.X < 0 {
		t.Error("EV must not reverse")
	}
}

func TestCruiseActor(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 0
	id := w.AddActor(&Actor{
		Class:    ClassVehicle,
		Pos:      geom.V(50, 0),
		Size:     SizeCar,
		Behavior: &Cruise{Speed: 5},
	})
	for i := 0; i < 15; i++ {
		w.Step(0)
	}
	a := w.Actor(id)
	if math.Abs(a.Pos.X-55) > 1e-9 {
		t.Errorf("actor X = %v, want 55", a.Pos.X)
	}
}

func TestHaltOnCloseGap(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 20
	w.AddActor(&Actor{
		Class:    ClassVehicle,
		Pos:      geom.V(30, 0),
		Size:     SizeCar,
		Behavior: Parked{},
	})
	for i := 0; i < 150 && !w.Halted; i++ {
		w.Step(0) // never brakes
	}
	if !w.Halted {
		t.Fatal("world should have halted")
	}
	gap, id, ok := w.GroundTruthGap()
	if !ok || gap >= HaltGap {
		t.Errorf("gap = %v ok=%v, want < %v", gap, ok, HaltGap)
	}
	if w.HaltActor != id {
		t.Errorf("HaltActor = %v, want %v", w.HaltActor, id)
	}
	frame := w.Frame
	w.Step(0) // halted world must not advance
	if w.Frame != frame {
		t.Error("halted world advanced")
	}
}

func TestNoHaltForAdjacentLaneActor(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 15
	w.AddActor(&Actor{
		Class:    ClassVehicle,
		Pos:      geom.V(30, 3.5), // parking lane
		Size:     SizeCar,
		Behavior: Parked{},
	})
	for i := 0; i < 100; i++ {
		w.Step(0)
	}
	if w.Halted {
		t.Fatal("adjacent-lane actor must not halt the EV")
	}
	if _, _, ok := w.GroundTruthGap(); ok {
		t.Error("parked car in parking lane should not be in corridor")
	}
}

func TestGroundTruthGapPicksNearest(t *testing.T) {
	w := newTestWorld()
	w.AddActor(&Actor{Class: ClassVehicle, Pos: geom.V(80, 0), Size: SizeCar, Behavior: Parked{}})
	near := w.AddActor(&Actor{Class: ClassVehicle, Pos: geom.V(40, 0), Size: SizeCar, Behavior: Parked{}})
	gap, id, ok := w.GroundTruthGap()
	if !ok || id != near {
		t.Fatalf("gap=%v id=%v ok=%v", gap, id, ok)
	}
	want := (40 - SizeCar.Length/2) - w.EV.Front()
	if math.Abs(gap-want) > 1e-9 {
		t.Errorf("gap = %v, want %v", gap, want)
	}
}

func TestGroundTruthGapIgnoresBehind(t *testing.T) {
	w := newTestWorld()
	w.AddActor(&Actor{Class: ClassVehicle, Pos: geom.V(-30, 0), Size: SizeCar, Behavior: Parked{}})
	if _, _, ok := w.GroundTruthGap(); ok {
		t.Error("actor behind EV should be ignored")
	}
}

func TestFollowRoute(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 0
	route := &FollowRoute{Waypoints: []Waypoint{
		{Pos: geom.V(60, 0), Speed: 5},
		{Pos: geom.V(60, 5), Speed: 5},
	}}
	id := w.AddActor(&Actor{Class: ClassVehicle, Pos: geom.V(50, 0), Size: SizeCar, Behavior: route})
	done := func() bool { return route.next >= len(route.Waypoints) }
	for i := 0; i < 15*5 && !done(); i++ {
		w.Step(0)
	}
	a := w.Actor(id)
	if !done() {
		t.Fatal("route not finished")
	}
	if a.Pos.Dist(geom.V(60, 5)) > 0.5 {
		t.Errorf("final pos = %v", a.Pos)
	}
	w.Step(0)
	if a.Vel.Norm() != 0 {
		t.Error("actor should stop after route")
	}
}

func TestTriggeredCross(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 10
	cross := &TriggeredCross{TriggerGap: 40, CrossSpeed: 1.5, ToY: -1}
	id := w.AddActor(&Actor{
		Class: ClassPedestrian, Pos: geom.V(80, 6), Size: SizePedestrian, Behavior: cross,
	})
	w.Step(0)
	if cross.triggered {
		t.Fatal("should not trigger at 80 m gap")
	}
	for i := 0; i < 15*8; i++ {
		w.Step(0)
	}
	if !cross.triggered {
		t.Fatal("pedestrian never triggered")
	}
	a := w.Actor(id)
	// The pedestrian must have made lateral progress toward the EV lane
	// (the run may halt once the unbraked EV reaches it).
	if a.Pos.Y > 1.0 {
		t.Errorf("pedestrian Y = %v, expected progress toward -1", a.Pos.Y)
	}
}

func TestWalkThenStop(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 0
	walk := &WalkThenStop{Speed: 1.0, Distance: 5}
	id := w.AddActor(&Actor{
		Class: ClassPedestrian, Pos: geom.V(60, 3.5), Size: SizePedestrian, Behavior: walk,
	})
	for i := 0; i < 15*10; i++ {
		w.Step(0)
	}
	a := w.Actor(id)
	if walk.walked < walk.Distance {
		t.Fatal("pedestrian should have stopped")
	}
	if math.Abs(a.Pos.X-55) > 0.2 {
		t.Errorf("pedestrian X = %v, want ~55", a.Pos.X)
	}
}

func TestRelativeStates(t *testing.T) {
	w := newTestWorld()
	w.EV.Speed = 10
	w.AddActor(&Actor{
		Class: ClassVehicle, Pos: geom.V(25, 0), Size: SizeCar,
		Behavior: &Cruise{Speed: 4},
	})
	w.Step(0)
	rel := w.RelativeInto(nil)
	if len(rel) != 1 {
		t.Fatalf("len = %d", len(rel))
	}
	if !rel[0].InLane {
		t.Error("in-lane actor misclassified")
	}
	if math.Abs(rel[0].Vel.X-(-6)) > 1e-9 {
		t.Errorf("rel vel = %v, want -6", rel[0].Vel.X)
	}

	// RelativeInto fills a reused buffer in place: one left over from a
	// world with more actors, every entry dirty, must come back equal
	// to a fresh RelativeInto(nil) field for field.
	w = newTestWorld()
	w.AddActor(&Actor{Class: ClassVehicle, Pos: geom.V(30, 0.4), Size: SizeSUV, Behavior: &Cruise{Speed: 5}})
	w.AddActor(&Actor{Class: ClassPedestrian, Pos: geom.V(20, 6), Size: SizePedestrian, Behavior: Parked{}})
	w.Step(0)
	dirty := make([]RelState, 5)
	for i := range dirty {
		dirty[i] = RelState{ID: 99, Class: 9, Pos: geom.V(-1, -2), Vel: geom.V(3, 4),
			Size: Size{Length: 7, Width: 8, Height: 9}, InLane: true}
	}
	got, want := w.RelativeInto(dirty), w.RelativeInto(nil)
	if len(got) != 2 || len(want) != 2 {
		t.Fatalf("len = %d and %d, want 2", len(got), len(want))
	}
	if &got[0] != &dirty[0] {
		t.Error("RelativeInto did not reuse a long enough buffer")
	}
	if !want[0].InLane || want[1].InLane {
		t.Fatalf("InLane = %v, %v; want one in-lane and one out-of-lane actor", want[0].InLane, want[1].InLane)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestInEVCorridor(t *testing.T) {
	r := DefaultRoad()
	tests := []struct {
		name string
		y, w float64
		want bool
	}{
		{"centered", 0, 1.9, true},
		{"parking-lane", 3.5, 1.9, false},
		{"edge-overlap", 1.8, 1.9, true},
		{"just-outside", 2.0, 1.9, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.InEVCorridor(tt.y, tt.w, 1.9); got != tt.want {
				t.Errorf("InEVCorridor(%v) = %v, want %v", tt.y, got, tt.want)
			}
		})
	}
}

func TestWorldDeterminism(t *testing.T) {
	build := func() *World {
		w := newTestWorld()
		w.AddActor(&Actor{Class: ClassVehicle, Pos: geom.V(60, 0), Size: SizeCar, Behavior: &Cruise{Speed: 7}})
		w.AddActor(&Actor{Class: ClassPedestrian, Pos: geom.V(90, 5), Size: SizePedestrian,
			Behavior: &TriggeredCross{TriggerGap: 45, CrossSpeed: 1.4, ToY: -2}})
		return w
	}
	a, b := build(), build()
	for i := 0; i < 300; i++ {
		a.Step(0.3)
		b.Step(0.3)
	}
	if a.EV.Pos != b.EV.Pos || a.Frame != b.Frame {
		t.Fatal("identical worlds diverged")
	}
	for i := range a.Actors {
		if a.Actors[i].Pos != b.Actors[i].Pos {
			t.Fatalf("actor %d diverged", i)
		}
	}
}

func BenchmarkWorldStep(b *testing.B) {
	w := newTestWorld()
	for i := 0; i < 10; i++ {
		w.AddActor(&Actor{Class: ClassVehicle, Pos: geom.V(float64(20+15*i), 0), Size: SizeCar,
			Behavior: &Cruise{Speed: 8}})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Step(0)
		w.Halted = false // keep stepping
	}
}
