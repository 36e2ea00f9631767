package core

import (
	"math"
	"sync"
	"testing"

	"github.com/robotack/robotack/internal/detect"
	"github.com/robotack/robotack/internal/geom"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/sensor"
	"github.com/robotack/robotack/internal/sim"
	"github.com/robotack/robotack/internal/stats"
)

func TestClassifyTrajectory(t *testing.T) {
	tests := []struct {
		name string
		y    float64
		vy   float64
		want Trajectory
	}{
		{"static", 3, 0.1, TrajectoryKeep},
		{"approaching-center-from-right", 3, -1.0, TrajectoryMovingIn},
		{"leaving-center-to-right", 1, 1.0, TrajectoryMovingOut},
		{"approaching-center-from-left", -3, 1.0, TrajectoryMovingIn},
		{"leaving-center-to-left", -1, -1.0, TrajectoryMovingOut},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ClassifyTrajectory(tt.y, tt.vy, 0.35); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

// Table I of the paper, cell by cell.
func TestMatcherTableI(t *testing.T) {
	m := NewMatcher(DefaultMatcherConfig())
	tests := []struct {
		name  string
		y, vy float64
		cls   sim.Class
		want  Vector
	}{
		{"in-lane keep vehicle -> Move_Out", 0, 0, sim.ClassVehicle, VectorMoveOut},
		{"in-lane keep pedestrian -> Disappear", 0, 0, sim.ClassPedestrian, VectorDisappear},
		{"in-lane moving-out -> Move_In", 0.8, 1.2, sim.ClassVehicle, VectorMoveIn},
		{"in-lane moving-in -> none", 0.8, -1.2, sim.ClassVehicle, VectorNone},
		{"out-of-lane moving-in vehicle -> Move_Out", 3.5, -1.2, sim.ClassVehicle, VectorMoveOut},
		{"out-of-lane moving-in ped -> Disappear", 3.5, -1.2, sim.ClassPedestrian, VectorDisappear},
		{"out-of-lane keep -> Move_In", 3.5, 0, sim.ClassVehicle, VectorMoveIn},
		{"out-of-lane moving-out -> none", 3.5, 1.2, sim.ClassVehicle, VectorNone},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Match(tt.y, tt.vy, 1.9, tt.cls); got != tt.want {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestAnalyticOracleMonotoneInK(t *testing.T) {
	s := State{Delta: 40, VRel: geom.V(-5, 0), EVSpeed: 12.5}
	for _, v := range []Vector{VectorMoveOut, VectorMoveIn, VectorDisappear} {
		o := NewAnalyticOracle(v)
		prev := math.Inf(1)
		for k := 1; k <= 90; k++ {
			p := o.PredictDelta(s, k)
			if p > prev+1e-9 {
				t.Fatalf("%v: f(k) not non-increasing at k=%d", v, k)
			}
			prev = p
		}
	}
}

func TestSafetyHijackerDecide(t *testing.T) {
	cfg := DefaultSafetyHijackerConfig()
	sh := NewSafetyHijacker(nil)

	// Far target, low closing speed: no K <= KMax pushes delta below
	// gamma, so the attack must not launch.
	far := State{Delta: 80, VRel: geom.V(-2, 0), EVSpeed: 12.5}
	dec, err := sh.Decide(cfg, far, VectorMoveOut, sim.ClassVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Attack {
		t.Fatalf("should not attack from delta=80: %+v", dec)
	}

	// Close target with real closing speed: attack with a finite K.
	near := State{Delta: 22, VRel: geom.V(-5.5, 0), EVSpeed: 12.5}
	dec, err = sh.Decide(cfg, near, VectorMoveOut, sim.ClassVehicle)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Attack {
		t.Fatal("should attack from delta=22")
	}
	if dec.K < 1 || dec.K > cfg.KMax(sim.ClassVehicle) {
		t.Errorf("K = %d outside bounds", dec.K)
	}
	if dec.PredictedDelta > cfg.Gamma+1e-9 {
		t.Errorf("predicted delta %v above gamma", dec.PredictedDelta)
	}

	// Binary search returns the MINIMAL such k: k-1 must not suffice.
	if dec.K > 1 {
		o := NewAnalyticOracle(VectorMoveOut)
		if o.PredictDelta(near, dec.K-1) <= cfg.Gamma {
			t.Errorf("K=%d is not minimal", dec.K)
		}
	}
}

// TestDecideEq2Property checks Eq. 2 against its definition on seeded
// random states, every vector and both classes, under thresholds drawn
// from the policy search space: the hijacker attacks iff f(KMax) <=
// gamma and f(KMax) is not NaN; it then attacks for K = max(KMin, k*),
// with k* the smallest k >= 1 with f(k) <= gamma by linear scan, and
// records f(K) as its forecast. The analytic oracle never rises in k
// (TestAnalyticOracleMonotoneInK), so the binary search must find k*
// exactly.
func TestDecideEq2Property(t *testing.T) {
	const decisions = 20000
	rng := stats.NewRNG(2)
	sh := NewSafetyHijacker(nil)
	vectors := [...]Vector{VectorMoveOut, VectorMoveIn, VectorDisappear}
	launches := 0
	for i := 0; i < decisions; i++ {
		cfg := SafetyHijackerConfig{
			Gamma:          rng.Uniform(2, 30),
			GammaMoveIn:    rng.Uniform(-6, 10),
			KMin:           1 + rng.IntN(12),
			KMaxVehicle:    8 + rng.IntN(59-8+1),
			KMaxPedestrian: 8 + rng.IntN(31-8+1),
		}
		s := State{
			Delta:   rng.Uniform(-5, 80),
			VRel:    geom.V(rng.Uniform(-20, 5), rng.Uniform(-3, 3)),
			ARel:    geom.V(rng.Uniform(-3, 3), rng.Uniform(-3, 3)),
			EVSpeed: rng.Uniform(0, 20),
		}
		v := vectors[rng.IntN(len(vectors))]
		cls := sim.ClassVehicle
		if rng.Bernoulli(0.5) {
			cls = sim.ClassPedestrian
		}
		dec, err := sh.Decide(cfg, s, v, cls)
		if err != nil {
			t.Fatal(err)
		}

		f := NewAnalyticOracle(v)
		gamma := cfg.Gamma
		if v == VectorMoveIn {
			gamma = cfg.GammaMoveIn
		}
		fMax := f.PredictDelta(s, cfg.KMax(cls))
		if want := fMax <= gamma && !math.IsNaN(fMax); dec.Attack != want {
			t.Fatalf("decision %d (%v, %v, %+v, %+v): attack %v, want %v (f(KMax) = %v, gamma %v)",
				i, v, cls, cfg, s, dec.Attack, want, fMax, gamma)
		}
		if !dec.Attack {
			continue
		}
		launches++
		kStar := 1
		for f.PredictDelta(s, kStar) > gamma {
			kStar++
		}
		if want := max(cfg.KMin, kStar); dec.K != want {
			t.Fatalf("decision %d (%v, %v, %+v, %+v): K = %d, want max(KMin %d, k* %d) = %d",
				i, v, cls, cfg, s, dec.K, cfg.KMin, kStar, want)
		}
		if want := f.PredictDelta(s, dec.K); dec.PredictedDelta != want {
			t.Fatalf("decision %d: forecast %v, want f(K=%d) = %v", i, dec.PredictedDelta, dec.K, want)
		}
	}
	if launches == 0 || launches == decisions {
		t.Fatalf("%d launches of %d decisions: the draw does not exercise both outcomes", launches, decisions)
	}
	t.Logf("%d decisions, %d launches", decisions, launches)
}

func TestSafetyHijackerKMaxClassBound(t *testing.T) {
	cfg := DefaultSafetyHijackerConfig()
	if cfg.KMax(sim.ClassPedestrian) >= cfg.KMax(sim.ClassVehicle) {
		t.Error("pedestrian KMax must be smaller (tighter stealth window)")
	}
}

// TestStateEncodeWidth: a state encodes to the oracle network's input
// width.
func TestStateEncodeWidth(t *testing.T) {
	s := State{Delta: 30, VRel: geom.V(-4, 0), EVSpeed: 12.5}
	if got := len(s.Encode(17)); got != EncodeDim {
		t.Fatalf("encode dim = %d, want %d", got, EncodeDim)
	}
}

// TestNNOracleClonesShareNet: the CloneOracles of one NNOracle share
// its network, and goroutines predicting through them at once get the
// bits one goroutine gets. Under -race it also shows that inference
// only reads the shared network.
func TestNNOracleClonesShareNet(t *testing.T) {
	rng := stats.NewRNG(21)
	src := &NNOracle{Net: nn.NewRegressor(EncodeDim, rng)}
	type query struct {
		s State
		k int
	}
	queries := make([]query, 64)
	for i := range queries {
		queries[i] = query{State{
			Delta:   rng.Uniform(5, 60),
			VRel:    geom.V(rng.Uniform(-10, 2), rng.Uniform(-1, 1)),
			ARel:    geom.V(rng.Uniform(-3, 3), rng.Uniform(-1, 1)),
			EVSpeed: 12.5,
		}, 1 + rng.IntN(60)}
	}
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = src.PredictDelta(q.s, q.k)
	}
	got := make([][]float64, 4)
	var wg sync.WaitGroup
	for w := range got {
		clone := src.CloneOracle().(*NNOracle)
		if clone == src || clone.Net != src.Net {
			t.Fatal("CloneOracle must return a new oracle on the same network")
		}
		got[w] = make([]float64, len(queries))
		wg.Add(1)
		go func(o Oracle, out []float64) {
			defer wg.Done()
			for range 3 {
				for i, q := range queries {
					out[i] = o.PredictDelta(q.s, q.k)
				}
			}
		}(clone, got[w])
	}
	wg.Wait()
	for w, out := range got {
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("goroutine %d query %d: %v, one goroutine %v", w, i, out[i], want[i])
			}
		}
	}
}

func newHijackDetection(box geom.Rect) detect.Detection {
	return detect.Detection{
		Box: box, Raw: box,
		Bottom: box.Min.Y + box.H, CenterU: box.Center().X,
		Class: sim.ClassVehicle, Area: int(box.Area()), Score: 1,
	}
}

func TestTrajectoryHijackerShiftsDetectedBox(t *testing.T) {
	img := sensor.NewImage(192, 108)
	img.Clear(0.05)
	box := geom.R(90, 50, 14, 12)
	img.FillRect(box, 0.9)

	th := NewTrajectoryHijacker(VectorMoveOut, true, 12)
	det := newHijackDetection(box)
	step := th.Perturb(img, det, box, sim.ClassVehicle)
	if step <= 0 {
		t.Fatalf("step = %v, want positive shift", step)
	}

	// The ADS-side detector must now see the box displaced by the step.
	cfg := detect.DefaultConfig()
	cfg.DisableNoise = true
	adsDets := detect.New(cfg, nil).Detect(img)
	if len(adsDets) != 1 {
		t.Fatalf("ADS sees %d detections, want 1", len(adsDets))
	}
	got := adsDets[0].Box.Center().X - box.Center().X
	if math.Abs(got-step) > 1.5 {
		t.Errorf("ADS-observed shift %v px, applied %v px", got, step)
	}
}

func TestTrajectoryHijackerStealthBudget(t *testing.T) {
	box := geom.R(90, 50, 14, 12)
	th := NewTrajectoryHijacker(VectorMoveOut, true, 100)

	np := detect.VehicleNoise
	budget := stealthFraction*(math.Abs(np.MuX)+np.SigmaX)*box.W + 1e-9
	img := sensor.NewImage(192, 108)
	for i := 0; i < 10; i++ {
		img.Clear(0.05)
		img.FillRect(box, 0.9)
		// Replica prediction follows the shifted box (ideal tracker).
		pred := box.Translate(geom.V(th.Offset(), 0))
		step := th.Perturb(img, newHijackDetection(box), pred, sim.ClassVehicle)
		if step > budget {
			t.Fatalf("frame %d: step %v exceeds stealth budget %v", i, step, budget)
		}
	}
}

func TestTrajectoryHijackerReachesOmegaThenHolds(t *testing.T) {
	box := geom.R(60, 50, 14, 12)
	const omega = 20.0
	th := NewTrajectoryHijacker(VectorMoveOut, true, omega)
	img := sensor.NewImage(192, 108)
	for i := 0; i < 30; i++ {
		img.Clear(0.05)
		img.FillRect(box, 0.9)
		pred := box.Translate(geom.V(th.Offset(), 0))
		th.Perturb(img, newHijackDetection(box), pred, sim.ClassVehicle)
	}
	if got := th.Offset(); math.Abs(got-omega) > 1e-6 {
		t.Errorf("offset = %v, want omega = %v", got, omega)
	}
	if !th.holding {
		t.Error("hijacker should be holding after reaching omega")
	}
	if kp := th.ShiftFrames(); kp < 2 || kp > 15 {
		t.Errorf("K' = %d, want a small number of shift frames", kp)
	}
}

func TestTrajectoryHijackerDisappearErases(t *testing.T) {
	img := sensor.NewImage(192, 108)
	img.Clear(0.05)
	box := geom.R(90, 50, 14, 12)
	img.FillRect(box, 0.9)

	th := NewTrajectoryHijacker(VectorDisappear, true, 0)
	th.Perturb(img, newHijackDetection(box), box, sim.ClassVehicle)

	cfg := detect.DefaultConfig()
	cfg.DisableNoise = true
	if dets := detect.New(cfg, nil).Detect(img); len(dets) != 0 {
		t.Fatalf("ADS still sees %d detections after Disappear", len(dets))
	}
}

func TestMalwareModes(t *testing.T) {
	cam := sensor.DefaultCamera()
	for _, mode := range []Mode{ModeSmart, ModeNoSH, ModeRandom} {
		m := New(DefaultConfig(mode), cam, nil, stats.NewRNG(1))
		if m == nil {
			t.Fatalf("mode %v: nil malware", mode)
		}
		if m.Attacking() {
			t.Errorf("mode %v: attacking before any frame", mode)
		}
	}
}

// End-to-end: RoboTack on a DS-1-like world must hijack the lead
// vehicle's trajectory and keep each per-frame shift inside the noise
// envelope.
func TestMalwareSmartLaunchesOnApproach(t *testing.T) {
	cam := sensor.DefaultCamera()
	ev := sim.DefaultEV()
	ev.Speed = sim.Kph(45)
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(60, 0), Size: sim.SizeSUV,
		Behavior: &sim.Cruise{Speed: sim.Kph(25)}})

	m := New(DefaultConfig(ModeSmart), cam, nil, stats.NewRNG(2))
	for i := 0; i < 15*30 && !w.Halted; i++ {
		frame := cam.CaptureInto(&sensor.CaptureBuffer{}, w, i)
		m.SetEVSpeed(w.EV.Speed)
		m.Process(frame.Image, i)
		w.Step(0) // EV coasts; we only test the malware's decisions here
	}
	log := m.Log()
	if !log.Launched {
		t.Fatal("smart malware never launched on a closing lead vehicle")
	}
	if log.Vector != VectorMoveOut {
		t.Errorf("vector = %v, want Move_Out for an in-lane vehicle", log.Vector)
	}
	if log.TargetClass != sim.ClassVehicle {
		t.Errorf("target class = %v", log.TargetClass)
	}
	if log.K < 1 || log.K > DefaultSafetyHijackerConfig().KMaxVehicle {
		t.Errorf("K = %d out of bounds", log.K)
	}
	np := detect.VehicleNoise
	// Stealth: no single-frame shift may exceed ~1 sigma of the noise
	// envelope for plausible box widths (<= 30 px at launch range).
	if log.MaxStepPx > (math.Abs(np.MuX)+np.SigmaX)*30 {
		t.Errorf("max per-frame step %v px breaks the stealth envelope", log.MaxStepPx)
	}
}

// TestMalwareFiresOnce holds the malware to one attack per episode and
// to inertness once that attack has ended: it must launch and finish on
// a closing lead vehicle, never launch again, and from the attack's end
// on leave every frame's pixels, its foreground window and its attack
// log as they were.
func TestMalwareFiresOnce(t *testing.T) {
	cam := sensor.DefaultCamera()
	ev := sim.DefaultEV()
	ev.Speed = sim.Kph(45)
	w := sim.NewWorld(sim.DefaultRoad(), ev)
	w.AddActor(&sim.Actor{Class: sim.ClassVehicle, Pos: geom.V(60, 0), Size: sim.SizeSUV,
		Behavior: &sim.Cruise{Speed: sim.Kph(25)}})
	m := New(DefaultConfig(ModeSmart), cam, nil, stats.NewRNG(2))
	th := detect.DefaultConfig().Threshold

	const spent = 200 // frames checked after the attack ends
	launches, endFrame := 0, -1
	wasAttacking := false
	var endLog AttackLog
	pix := make([]uint64, cam.W*cam.H)
	for i := 0; endFrame < 0 || i <= endFrame+spent; i++ {
		if endFrame < 0 && (w.Halted || i >= 15*40) {
			t.Fatalf("frame %d: attack launched %d times and never ended", i, launches)
		}
		accel := 0.0 // the EV coasts until the attack ends, then stops
		if endFrame >= 0 {
			accel = -w.EV.MaxBrake
		}
		frame := cam.CaptureInto(&sensor.CaptureBuffer{}, w, i)
		img := frame.Image
		for j := range pix {
			pix[j] = math.Float64bits(img.At(j%img.W, j/img.W))
		}
		x0, y0, x1, y1 := img.ForegroundWindow(th)
		m.SetEVSpeed(w.EV.Speed)
		m.Process(img, i)
		if m.Attacking() && !wasAttacking {
			launches++
		}
		if wasAttacking && !m.Attacking() {
			endFrame = i
			endLog = m.Log()
		}
		wasAttacking = m.Attacking()
		w.Step(accel)
		if endFrame < 0 || i == endFrame {
			continue
		}
		for j, want := range pix {
			if math.Float64bits(img.At(j%img.W, j/img.W)) != want {
				t.Fatalf("frame %d, %d after the attack: Process wrote pixel (%d, %d)", i, i-endFrame, j%img.W, j/img.W)
			}
		}
		if gx0, gy0, gx1, gy1 := img.ForegroundWindow(th); [4]int{gx0, gy0, gx1, gy1} != [4]int{x0, y0, x1, y1} {
			t.Fatalf("frame %d: window %v after Process, %v before", i, [4]int{gx0, gy0, gx1, gy1}, [4]int{x0, y0, x1, y1})
		}
		if got := m.Log(); got != endLog {
			t.Fatalf("frame %d: log %+v, want %+v as at the attack's last frame", i, got, endLog)
		}
	}
	if launches != 1 {
		t.Errorf("launches = %d, want 1", launches)
	}
	if !endLog.Launched || endLog.K < 1 {
		t.Errorf("log at the attack's end = %+v, want a launched attack", endLog)
	}
}
