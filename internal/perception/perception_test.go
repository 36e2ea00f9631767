package perception

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/fusion"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
)

// noiselessPipeline returns a deterministic stack for behavioural tests.
func noiselessPipeline(cam *sensor.Camera) *Pipeline {
	detCfg := detect.DefaultConfig()
	detCfg.DisableNoise = true
	return New(cam, detCfg, nil)
}

func pedWorld(depth, lateral float64) *sim.World {
	ev := sim.DefaultEV()
	ev.Speed = 0
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassPedestrian, Pos: geom.V(depth, lateral),
		Size: sim.SizePedestrian, Behavior: sim.Parked{}})
	return w
}

func vehicleWorld(depth float64) *sim.World {
	ev := sim.DefaultEV()
	ev.Speed = 0
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(depth, 0),
		Size: sim.SizeCar, Behavior: sim.Parked{}})
	return w
}

func stepFrames(p *Pipeline, cam *sensor.Camera, w *sim.World, lidar *sensor.Lidar, n int) []fusion.Object {
	var objs []fusion.Object
	for i := 0; i < n; i++ {
		frame := cam.CaptureInto(&sensor.CaptureBuffer{}, w, i)
		var ld []sensor.Detection
		if lidar != nil {
			ld = lidar.Scan(w)
		}
		objs = p.Process(frame.Image, ld)
	}
	return objs
}

func confidentCount(objs []fusion.Object, cfg fusion.Config) int {
	n := 0
	for _, o := range objs {
		if o.Confidence >= cfg.Confident {
			n++
		}
	}
	return n
}

func TestPipelineRegistersObject(t *testing.T) {
	cam := sensor.DefaultCamera()
	p := noiselessPipeline(cam)
	w := vehicleWorld(30)
	objs := stepFrames(p, cam, w, sensor.NewLidar(nil), 20)
	if confidentCount(objs, p.Fusion.Config()) != 1 {
		t.Fatalf("confident objects = %d, want 1 (objs=%+v)", confidentCount(objs, p.Fusion.Config()), objs)
	}
	o := objs[0]
	if math.Abs(o.Rel.X-30) > 2.5 || math.Abs(o.Rel.Y) > 1 {
		t.Errorf("fused pos = %v, want ~(30, 0)", o.Rel)
	}
	if o.Class != sim.ClassVehicle {
		t.Errorf("class = %v", o.Class)
	}
	if !o.CameraSeen || !o.LidarSeen {
		t.Errorf("sensor flags = cam %v lidar %v, want both", o.CameraSeen, o.LidarSeen)
	}
}

// The asymmetry at the heart of the paper's findings 3 and 4: with the
// camera suppressed, a pedestrian beyond LiDAR range fades from the
// world model in ~14 frames, a LiDAR-confirmed vehicle takes ~3x longer.
func TestCameraSuppressionFadeAsymmetry(t *testing.T) {
	cam := sensor.DefaultCamera()

	fade := func(w *sim.World, lidar *sensor.Lidar) int {
		p := noiselessPipeline(cam)
		stepFrames(p, cam, w, lidar, 40) // build confidence
		blank := sensor.NewImage(cam.W, cam.H)
		blank.Clear(0.05)
		cfg := p.Fusion.Config()
		for i := 0; i < 120; i++ {
			var ld []sensor.Detection
			if lidar != nil {
				ld = lidar.Scan(w)
			}
			objs := p.Process(blank, ld)
			if confidentCount(objs, cfg) == 0 {
				return i + 1
			}
		}
		return 121
	}

	lidar := sensor.NewLidar(nil)
	pedFrames := fade(pedWorld(35, 0), lidar) // beyond 24 m ped range: camera-only
	vehFrames := fade(vehicleWorld(35), lidar)

	if pedFrames < 8 || pedFrames > 22 {
		t.Errorf("pedestrian fade = %d frames, want ~14 (paper K for DS-2-Disappear)", pedFrames)
	}
	if vehFrames < 18 || vehFrames > 60 {
		t.Errorf("vehicle fade = %d frames, want ~24+ (LiDAR keeps it alive longer)", vehFrames)
	}
	if vehFrames <= pedFrames {
		t.Errorf("vehicle fade (%d) must exceed pedestrian fade (%d)", vehFrames, pedFrames)
	}
}

func TestLidarOnlyObjectDiscountedThenTrusted(t *testing.T) {
	cam := sensor.DefaultCamera()
	p := noiselessPipeline(cam)
	w := vehicleWorld(35)
	lidar := sensor.NewLidar(nil)
	blank := sensor.NewImage(cam.W, cam.H)
	blank.Clear(0.05)
	cfg := p.Fusion.Config()
	var objs []fusion.Object
	for i := 0; i < fusion.LidarTrustFramesVehicle-2; i++ {
		objs = p.Process(blank, lidar.Scan(w))
		if confidentCount(objs, cfg) != 0 {
			t.Fatalf("frame %d: LiDAR-only object confident during the disagreement window", i)
		}
	}
	if len(objs) == 0 {
		t.Fatal("LiDAR-only object should exist in the world model")
	}
	for i := 0; i < 40; i++ {
		objs = p.Process(blank, lidar.Scan(w))
	}
	if confidentCount(objs, cfg) != 1 {
		t.Errorf("persistent LiDAR evidence should re-register the object (conf=%v)", objs[0].Confidence)
	}
}

func TestFusedVelocityTracksRelativeMotion(t *testing.T) {
	cam := sensor.DefaultCamera()
	p := noiselessPipeline(cam)
	ev := sim.DefaultEV()
	ev.Speed = 10
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(60, 0), Size: sim.SizeCar,
		Behavior: &sim.Cruise{Speed: 6}})
	lidar := sensor.NewLidar(nil)
	var objs []fusion.Object
	for i := 0; i < 45; i++ {
		frame := cam.CaptureInto(&sensor.CaptureBuffer{}, w, i)
		objs = p.Process(frame.Image, lidar.Scan(w))
		w.Step(0)
	}
	if len(objs) != 1 {
		t.Fatalf("objects = %d", len(objs))
	}
	// Relative longitudinal velocity is 6 - 10 = -4 m/s.
	if math.Abs(objs[0].Vel.X-(-4)) > 1.5 {
		t.Errorf("fused rel vel = %v, want ~-4", objs[0].Vel.X)
	}
}

func TestPedestrianWithinLidarRangeGetsBothSensors(t *testing.T) {
	cam := sensor.DefaultCamera()
	p := noiselessPipeline(cam)
	w := pedWorld(15, 2) // inside 24 m LiDAR range
	objs := stepFrames(p, cam, w, sensor.NewLidar(nil), 25)
	if len(objs) != 1 {
		t.Fatalf("objects = %d (%+v)", len(objs), objs)
	}
	if !objs[0].LidarSeen || !objs[0].CameraSeen {
		t.Errorf("near pedestrian should be dual-sensor: %+v", objs[0])
	}
}

func TestResetClearsState(t *testing.T) {
	cam := sensor.DefaultCamera()
	p := noiselessPipeline(cam)
	stepFrames(p, cam, vehicleWorld(30), sensor.NewLidar(nil), 10)
	p.Reset()
	// A step with no input returns whatever objects the fusion still
	// holds, decayed by one frame.
	if len(p.Fusion.Step(nil, nil, sim.DT)) != 0 || len(p.Tracker.Tracks()) != 0 || p.LastDetections() != nil {
		t.Error("Reset left state behind")
	}
}

func BenchmarkPipelineFrame(b *testing.B) {
	cam := sensor.DefaultCamera()
	p := noiselessPipeline(cam)
	ev := sim.DefaultEV()
	ev.Speed = 10
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	for i := 0; i < 6; i++ {
		w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(float64(20+15*i), 0),
			Size: sim.SizeCar, Behavior: sim.Parked{}})
	}
	lidar := sensor.NewLidar(nil)
	frame := cam.CaptureInto(&sensor.CaptureBuffer{}, w, 0)
	ld := lidar.Scan(w)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Process(frame.Image, ld)
	}
}
