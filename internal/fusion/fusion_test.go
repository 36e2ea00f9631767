package fusion

import (
	"math"
	"testing"

	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
)

const dt = 1.0 / 15

func lidarDet(x, y float64, cls sim.Class) sensor.Detection {
	size := sim.SizeCar
	if cls == sim.ClassPedestrian {
		size = sim.SizePedestrian
	}
	return sensor.Detection{Class: cls, RelPos: geom.V(x, y), Size: size}
}

func TestLidarOnlyDiscountThenTrustPromotion(t *testing.T) {
	cfg := DefaultConfig()
	f := New(sensor.DefaultCamera())
	var objs []Object
	// During the disagreement window the object must stay below the
	// planner threshold.
	for i := 0; i < LidarTrustFramesVehicle-2; i++ {
		objs = f.Step(nil, []sensor.Detection{lidarDet(40, 0, sim.ClassVehicle)}, dt)
		if len(objs) != 1 {
			t.Fatalf("frame %d: objects = %d, want 1", i, len(objs))
		}
		if objs[0].Confidence >= cfg.Confident {
			t.Fatalf("frame %d: confidence %v crossed %v during discount window",
				i, objs[0].Confidence, cfg.Confident)
		}
	}
	o := objs[0]
	// Near the LiDAR-alone equilibrium of c' = decay*c + gain.
	want := lidarAloneGainVehicle / (1 - decay)
	if math.Abs(o.Confidence-want) > 0.06 {
		t.Errorf("confidence %v, want equilibrium ~%v", o.Confidence, want)
	}
	if !o.LidarSeen || o.CameraSeen {
		t.Errorf("sensor flags wrong: %+v", o)
	}
	// Persistent LiDAR evidence eventually re-registers the object.
	for i := 0; i < 40; i++ {
		objs = f.Step(nil, []sensor.Detection{lidarDet(40, 0, sim.ClassVehicle)}, dt)
	}
	if objs[0].Confidence < cfg.Confident {
		t.Errorf("confidence %v after trust promotion, want >= %v", objs[0].Confidence, cfg.Confident)
	}
}

func TestDecayReachesDropThreshold(t *testing.T) {
	f := New(sensor.DefaultCamera())
	// Build a LiDAR-backed object, then cut all sensors.
	for i := 0; i < 50; i++ {
		f.Step(nil, []sensor.Detection{lidarDet(40, 0, sim.ClassVehicle)}, dt)
	}
	frames := 0
	for ; frames < 500; frames++ {
		if len(f.Step(nil, nil, dt)) == 0 {
			break
		}
	}
	if frames >= 500 {
		t.Fatal("unconfirmed object never dropped")
	}
}

func TestLidarObjectsForDistinctActorsStaySeparate(t *testing.T) {
	f := New(sensor.DefaultCamera())
	var objs []Object
	for i := 0; i < 60; i++ {
		objs = f.Step(nil, []sensor.Detection{
			lidarDet(40, 0, sim.ClassVehicle),
			lidarDet(40, 3.5, sim.ClassVehicle), // adjacent lane
		}, dt)
	}
	if len(objs) != 2 {
		t.Fatalf("objects = %d, want 2 (lateral gate must separate lanes)", len(objs))
	}
}

func TestMergeAbsorbsDuplicate(t *testing.T) {
	f := New(sensor.DefaultCamera())
	// Spawn two same-class lidar objects that drift onto the same spot.
	f.Step(nil, []sensor.Detection{lidarDet(40, 0, sim.ClassVehicle)}, dt)
	f.Step(nil, []sensor.Detection{lidarDet(48, 1.5, sim.ClassVehicle)}, dt)
	var objs []Object
	for i := 0; i < 30; i++ {
		objs = f.Step(nil, []sensor.Detection{lidarDet(44, 0.5, sim.ClassVehicle)}, dt)
	}
	if len(objs) != 1 {
		t.Fatalf("objects = %d, want 1 after merge", len(objs))
	}
}

func TestVelocityEstimateFromLidar(t *testing.T) {
	f := New(sensor.DefaultCamera())
	var objs []Object
	x := 60.0
	for i := 0; i < 90; i++ {
		objs = f.Step(nil, []sensor.Detection{lidarDet(x, 0, sim.ClassVehicle)}, dt)
		x -= 5 * dt // closing at 5 m/s
	}
	if len(objs) != 1 {
		t.Fatalf("objects = %d", len(objs))
	}
	if math.Abs(objs[0].Vel.X-(-5)) > 0.5 {
		t.Errorf("vel = %v, want ~-5", objs[0].Vel.X)
	}
}

func TestResetClears(t *testing.T) {
	f := New(sensor.DefaultCamera())
	f.Step(nil, []sensor.Detection{lidarDet(40, 0, sim.ClassVehicle)}, dt)
	f.Reset()
	if len(f.objects) != 0 {
		t.Error("Reset left objects")
	}
}

func TestConfidentHelper(t *testing.T) {
	cfg := DefaultConfig()
	o := Object{Confidence: cfg.Confident + 0.01}
	if !o.Confident(&cfg) {
		t.Error("object above threshold should be confident")
	}
	o.Confidence = cfg.Confident - 0.01
	if o.Confident(&cfg) {
		t.Error("object below threshold should not be confident")
	}
}
