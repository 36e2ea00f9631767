package detect

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

func noiselessDetector() *Detector {
	cfg := DefaultConfig()
	cfg.DisableNoise = true
	return New(cfg, nil)
}

func TestDetectSingleComponent(t *testing.T) {
	img := sensor.NewImage(64, 48)
	img.Clear(0.05)
	img.FillRect(geom.R(10, 20, 8, 6), 0.9)
	dets := noiselessDetector().Detect(img)
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1", len(dets))
	}
	d := dets[0]
	if d.Raw != geom.R(10, 20, 8, 6) {
		t.Errorf("Raw = %v", d.Raw)
	}
	if d.Box != d.Raw {
		t.Errorf("noiseless Box should equal Raw")
	}
	if d.Area != 48 {
		t.Errorf("Area = %d, want 48", d.Area)
	}
	if d.Class != sim.ClassVehicle {
		t.Errorf("Class = %v", d.Class)
	}
}

func TestDetectClassifiesPedestrianByAspect(t *testing.T) {
	img := sensor.NewImage(64, 48)
	img.FillRect(geom.R(5, 10, 3, 9), 0.9) // tall & narrow
	dets := noiselessDetector().Detect(img)
	if len(dets) != 1 || dets[0].Class != sim.ClassPedestrian {
		t.Fatalf("dets = %+v, want one pedestrian", dets)
	}
}

func TestDetectMultipleAndMinArea(t *testing.T) {
	img := sensor.NewImage(64, 48)
	img.FillRect(geom.R(2, 2, 5, 4), 0.9)
	img.FillRect(geom.R(30, 30, 6, 5), 0.9)
	img.Set(60, 40, 0.9) // single pixel, below MinArea
	dets := noiselessDetector().Detect(img)
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2", len(dets))
	}
}

func TestDetectSeparatesDiagonalComponents(t *testing.T) {
	// Two blocks touching only at a corner: 4-connectivity must split them.
	img := sensor.NewImage(32, 32)
	img.FillRect(geom.R(4, 4, 3, 3), 0.9)
	img.FillRect(geom.R(7, 7, 3, 3), 0.9)
	dets := noiselessDetector().Detect(img)
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2 (4-connectivity)", len(dets))
	}
}

func TestDetectMergesTouchingComponents(t *testing.T) {
	img := sensor.NewImage(32, 32)
	img.FillRect(geom.R(4, 4, 4, 4), 0.9)
	img.FillRect(geom.R(8, 4, 4, 4), 0.9) // shares an edge column
	dets := noiselessDetector().Detect(img)
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1 (merged)", len(dets))
	}
	if dets[0].Raw.W != 8 {
		t.Errorf("merged width = %v, want 8", dets[0].Raw.W)
	}
}

func TestNoiseDistributionMatchesFig5(t *testing.T) {
	rng := stats.NewRNG(42)
	det := New(DefaultConfig(), rng)
	img := sensor.NewImage(192, 108)
	boxW, boxH := 12.0, 9.0
	var nx, ny []float64
	for i := 0; i < 4000; i++ {
		img.Clear(0.05)
		img.FillRect(geom.R(60, 50, boxW, boxH), 0.9)
		for _, d := range det.Detect(img) {
			nx = append(nx, (d.Box.Center().X-d.Raw.Center().X)/d.Raw.W)
			ny = append(ny, (d.Box.Center().Y-d.Raw.Center().Y)/d.Raw.H)
		}
	}
	if len(nx) < 3000 {
		t.Fatalf("only %d detections (misses ate too many)", len(nx))
	}
	fx, err := stats.FitNormal(nx)
	if err != nil {
		t.Fatal(err)
	}
	fy, err := stats.FitNormal(ny)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fx.Mu-VehicleNoise.MuX) > 0.05 || math.Abs(fx.Sigma-VehicleNoise.SigmaX) > 0.06 {
		t.Errorf("x fit %v, want mu=%v sigma=%v", fx, VehicleNoise.MuX, VehicleNoise.SigmaX)
	}
	if math.Abs(fy.Mu-VehicleNoise.MuY) > 0.05 || math.Abs(fy.Sigma-VehicleNoise.SigmaY) > 0.06 {
		t.Errorf("y fit %v, want mu=%v sigma=%v", fy, VehicleNoise.MuY, VehicleNoise.SigmaY)
	}
}

func TestMissRunsAreContinuousAndExponential(t *testing.T) {
	rng := stats.NewRNG(7)
	det := New(DefaultConfig(), rng)
	img := sensor.NewImage(192, 108)

	var runs []float64
	run := 0
	detected := 0
	const frames = 30000
	for i := 0; i < frames; i++ {
		img.Clear(0.05)
		img.FillRect(geom.R(80, 50, 10, 8), 0.9) // static vehicle-shaped blob
		dets := det.Detect(img)
		if len(dets) == 0 {
			run++
			continue
		}
		detected++
		if run > 0 {
			runs = append(runs, float64(run))
			run = 0
		}
	}
	if len(runs) < 100 {
		t.Fatalf("only %d miss runs in %d frames", len(runs), frames)
	}
	fit, err := stats.FitExponential(runs)
	if err != nil {
		t.Fatal(err)
	}
	// Miss runs must be at least 1 frame and heavy-tailed like Fig. 5(b):
	// 99th percentile in the tens of frames, not single digits.
	if fit.Loc < 1 {
		t.Errorf("run loc = %v, want >= 1", fit.Loc)
	}
	if fit.P99 < 20 || fit.P99 > 110 {
		t.Errorf("p99 = %v, want in the tens of frames (paper: 59.4)", fit.P99)
	}
	// Overall availability should remain high (misdetections are noise,
	// not blackout).
	if avail := float64(detected) / frames; avail < 0.75 {
		t.Errorf("availability = %v, too low", avail)
	}
}

func TestPedestrianMissRunsShorterThanVehicle(t *testing.T) {
	rng := stats.NewRNG(9)
	det := New(DefaultConfig(), rng)
	var ped, veh []float64
	for i := 0; i < 20000; i++ {
		// One run at the reference small-box height of 4 px.
		ped = append(ped, float64(det.sampleRun(missParams(sim.ClassPedestrian), 4)))
		veh = append(veh, float64(det.sampleRun(missParams(sim.ClassVehicle), 4)))
	}
	if stats.Mean(ped) >= stats.Mean(veh) {
		t.Errorf("mean ped run %v should be < mean veh run %v", stats.Mean(ped), stats.Mean(veh))
	}
	p99p, _ := stats.Percentile(ped, 99)
	p99v, _ := stats.Percentile(veh, 99)
	if p99p >= p99v {
		t.Errorf("p99 ped %v should be < p99 veh %v (paper: 31 vs 59.4)", p99p, p99v)
	}
	if p99p < 10 || p99p > 60 {
		t.Errorf("p99 ped = %v, want near 31", p99p)
	}
	if p99v < 30 || p99v > 110 {
		t.Errorf("p99 veh = %v, want near 59", p99v)
	}
}

func TestResetClearsMissState(t *testing.T) {
	img := sensor.NewImage(64, 48)
	img.FillRect(geom.R(10, 10, 8, 6), 0.9)
	det := New(DefaultConfig(), stats.NewRNG(3))
	// The component is mid-way through a miss run.
	det.prev = append(det.prev, detTrack{box: geom.R(10, 10, 8, 6), missLeft: 50})
	if got := det.Detect(img); len(got) != 0 {
		t.Fatalf("a frame inside a miss run should report nothing, got %d detections", len(got))
	}
	det.Reset()
	if len(det.prev) != 0 {
		t.Error("Reset did not clear state")
	}
	// A post-Reset frame must behave like a fresh detector's first frame
	// on the same noise stream instead of continuing the old run.
	det.SetRNG(stats.NewRNG(3))
	want := New(DefaultConfig(), stats.NewRNG(3)).Detect(img)
	if len(want) != 1 {
		t.Fatalf("fresh detector reports %d detections, want 1", len(want))
	}
	if got := det.Detect(img); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("post-Reset frame = %+v, fresh detector %+v", got, want)
	}
}

func TestDetectorWithCameraEndToEnd(t *testing.T) {
	ev := sim.DefaultEV()
	ev.Speed = 10
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(30, 0), Size: sim.SizeCar, Behavior: sim.Parked{}})
	w.AddActor(&sim.Actor{Class: sim.ClassPedestrian, Pos: geom.V(18, 4), Size: sim.SizePedestrian, Behavior: sim.Parked{}})
	cam := sensor.DefaultCamera()
	frame := cam.CaptureInto(&sensor.CaptureBuffer{}, w, 0)
	dets := noiselessDetector().Detect(frame.Image)
	if len(dets) != 2 {
		t.Fatalf("detections = %d, want 2", len(dets))
	}
	classes := map[sim.Class]int{}
	for _, d := range dets {
		classes[d.Class]++
		// Each detection should land on a truth projection.
		found := false
		for _, tr := range frame.Truth {
			if d.Raw.IoU(tr.Box) > 0.4 {
				found = true
			}
		}
		if !found {
			t.Errorf("detection %v matches no truth box", d.Raw)
		}
	}
	if classes[sim.ClassPedestrian] != 1 || classes[sim.ClassVehicle] != 1 {
		t.Errorf("classes = %v", classes)
	}
}

// BenchmarkDetect measures one warm Detect on a camera-rendered frame:
// a near car in the next lane, two far cars ahead and a pedestrian,
// anti-aliased like every frame the ADS sees. Before each Detect the
// frame's Clear and four fills are replayed, which drops the image's
// labeling memo, so every iteration labels the frame afresh, as the
// first detector on a frame does. A warm Detect allocates nothing.
func BenchmarkDetect(b *testing.B) {
	w := sim.NewWorld(sim.DefaultRoad(), sim.DefaultEV())
	for _, a := range []*sim.Actor{
		{Class: sim.ClassVehicle, Pos: geom.V(9, -3.5), Size: sim.SizeCar},
		{Class: sim.ClassVehicle, Pos: geom.V(45, 0), Size: sim.SizeCar},
		{Class: sim.ClassVehicle, Pos: geom.V(80, 3.5), Size: sim.SizeCar},
		{Class: sim.ClassPedestrian, Pos: geom.V(16, 4), Size: sim.SizePedestrian},
	} {
		a.Behavior = sim.Parked{}
		w.AddActor(a)
	}
	cam := sensor.DefaultCamera()
	frame := cam.CaptureInto(&sensor.CaptureBuffer{}, w, 0)
	img := frame.Image
	det := New(DefaultConfig(), stats.NewRNG(1))
	th := det.cfg.Threshold
	if n := len(img.Components(th)); n != 4 {
		b.Fatalf("frame has %d components, want 4", n)
	}
	det.Detect(img)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Clear(cam.Background)
		for j := range frame.Truth {
			img.FillRectAA(frame.Truth[j].Box, cam.Foreground)
		}
		_ = det.Detect(img)
	}
}
