package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/robotack/robotack/internal/stats"
)

// syntheticOracleData builds n synthetic samples, a four-wide stand-in
// for the safety hijacker's training data, whose rows are six-wide
// (core.EncodeDim: δ, vrel.x, vrel.y, arel.x, arel.y, k·DT), with a
// smooth nonlinear label. TestTrainGolden's bits depend on these rows
// as they are.
func syntheticOracleData(n int, seed int64) Dataset {
	rng := stats.NewRNG(seed)
	var ds Dataset
	for i := 0; i < n; i++ {
		x := []float64{rng.Uniform(5, 50), rng.Uniform(-10, 5), rng.Uniform(-4, 2), float64(1 + rng.IntN(60))}
		y := x[0] + x[1]*x[3]/15 + 0.5*x[2]*math.Sqrt(x[3]) + rng.Normal(0, 0.5)
		ds.Add(x, y)
	}
	return ds
}

// weightDigest is the SHA-256 of the bit patterns of every dense layer's
// weights then biases, in layer order.
func weightDigest(n *Network) string {
	h := sha256.New()
	var b [8]byte
	for _, d := range n.Layers {
		for _, p := range [][]float64{d.W, d.B} {
			for _, v := range p {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainGolden pins training arithmetic: a fixed dataset, seed and
// recipe must reproduce these exact Result bits and weight digest. Any
// reordering of the float64 operations, a changed dropout draw order or
// a fused multiply-add changes them. The values were recorded on amd64,
// whose Go compiler never fuses x*y+z at the default GOAMD64=v1;
// architectures that fuse (arm64, ppc64le, s390x) round differently and
// skip the test.
func TestTrainGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	rng := stats.NewRNG(4000)
	ds := syntheticOracleData(250, 99)
	train, val := ds.Split(0.6, rng)
	n := NewRegressor(4, rng)
	res, err := Train(n, train, val, TrainConfig{Epochs: 3, BatchSize: 32, LR: 1e-3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"TrainMSE", res.TrainMSE, 0x405fce1e40ba6be3},
		{"ValMSE", res.ValMSE, 0x405e0d24d30ad0dc},
		{"ValMAE", res.ValMAE, 0x401f94d4044a75e8},
	} {
		if bits := math.Float64bits(c.got); bits != c.want {
			t.Errorf("%s = %v (bits %#x), want bits %#x", c.name, c.got, bits, c.want)
		}
	}
	const wantDigest = "32a004e13abeb2950f70fd265d3db95f175f681de46a49690ab05a7bdc63b280"
	if got := weightDigest(n); got != wantDigest {
		t.Errorf("weight digest = %s, want %s", got, wantDigest)
	}
}

// TestTrainerEpochsAcrossGoroutines: a Trainer whose epochs each run on
// a goroutine of their own, handed over through a channel, ends with
// the same weight and Result bits as Train.
func TestTrainerEpochsAcrossGoroutines(t *testing.T) {
	cfg := TrainConfig{Epochs: 4, BatchSize: 16, LR: 1e-3}
	ds := syntheticOracleData(150, 8)
	setup := func() (*Network, Dataset, Dataset, *stats.RNG) {
		rng := stats.NewRNG(9)
		train, val := ds.Split(0.6, rng)
		return NewRegressor(4, rng), train, val, rng
	}
	want, train, val, rng := setup()
	wantRes, err := Train(want, train, val, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, train, val, rng := setup()
	tr, err := NewTrainer(got, train, val, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	for more := true; more; epochs++ {
		done := make(chan bool)
		go func() { done <- tr.Epoch() }()
		more = <-done
	}
	if epochs != cfg.Epochs {
		t.Errorf("Epoch reported epochs left %d times, want %d", epochs-1, cfg.Epochs-1)
	}
	if tr.Epoch() {
		t.Error("Epoch after the last epoch reports epochs left")
	}
	gotRes := tr.Result()
	for _, f := range [][2]float64{
		{gotRes.TrainMSE, wantRes.TrainMSE}, {gotRes.ValMSE, wantRes.ValMSE}, {gotRes.ValMAE, wantRes.ValMAE},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Errorf("Result %+v, Train's %+v", gotRes, wantRes)
			break
		}
	}
	if g, w := weightDigest(got), weightDigest(want); g != w {
		t.Errorf("weight digest %s, Train's %s", g, w)
	}
}

// TestTrainRejectsBadInput: configs that would loop forever or train
// nothing meaningful, and rows whose width differs from the network's
// input, are errors rather than hangs, panics or silent truncation.
func TestTrainRejectsBadInput(t *testing.T) {
	good := TrainConfig{Epochs: 1, BatchSize: 8, LR: 1e-3}
	ds := syntheticOracleData(20, 1)
	narrow := Dataset{X: [][]float64{{1, 2, 3}}, Y: []float64{1}}
	wide := Dataset{X: [][]float64{{1, 2, 3, 4, 5}}, Y: []float64{1}}
	for _, c := range []struct {
		name       string
		cfg        TrainConfig
		train, val Dataset
		want       string
	}{
		{"zero batch", TrainConfig{Epochs: 1, BatchSize: 0, LR: 1e-3}, ds, Dataset{}, "batch size"},
		{"negative batch", TrainConfig{Epochs: 1, BatchSize: -4, LR: 1e-3}, ds, Dataset{}, "batch size"},
		{"negative epochs", TrainConfig{Epochs: -1, BatchSize: 8, LR: 1e-3}, ds, Dataset{}, "epochs"},
		{"zero lr", TrainConfig{Epochs: 1, BatchSize: 8, LR: 0}, ds, Dataset{}, "learning rate"},
		{"negative lr", TrainConfig{Epochs: 1, BatchSize: 8, LR: -1e-3}, ds, Dataset{}, "learning rate"},
		{"NaN lr", TrainConfig{Epochs: 1, BatchSize: 8, LR: math.NaN()}, ds, Dataset{}, "learning rate"},
		{"narrow train row", good, narrow, Dataset{}, "width 3"},
		{"wide train row", good, wide, Dataset{}, "width 5"},
		{"narrow val row", good, ds, narrow, "width 3"},
		{"label count", good, Dataset{X: ds.X, Y: ds.Y[:3]}, Dataset{}, "labels"},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := stats.NewRNG(1)
			_, err := Train(NewRegressor(4, rng), c.train, c.val, c.cfg, rng)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
		})
	}
	// Zero epochs is a valid (if useless) recipe: it evaluates the
	// untrained network.
	rng := stats.NewRNG(1)
	if _, err := Train(NewRegressor(4, rng), ds, ds, TrainConfig{Epochs: 0, BatchSize: 8, LR: 1e-3}, rng); err != nil {
		t.Fatalf("zero epochs: %v", err)
	}
}

// TestTrainAllocsIndependentOfSamples: training allocates its buffers
// once per call, so ten times the data costs no extra allocations —
// only the per-epoch permutation and fixed set-up remain. That holds
// for Train and for the same fit driven epoch by epoch through a
// Trainer. The count is exact, so the test collects garbage first and
// turns the collector off while counting: a GC cycle that happens to
// start inside the window makes the runtime allocate too.
func TestTrainAllocsIndependentOfSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("trains on 2,000 samples")
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := TrainConfig{Epochs: 2, BatchSize: 32, LR: 1e-3}
	for _, c := range []struct {
		name string
		fit  func(n *Network, train, val Dataset, rng *stats.RNG) error
	}{
		{"Train", func(n *Network, train, val Dataset, rng *stats.RNG) error {
			_, err := Train(n, train, val, cfg, rng)
			return err
		}},
		{"Trainer", func(n *Network, train, val Dataset, rng *stats.RNG) error {
			tr, err := NewTrainer(n, train, val, cfg, rng)
			if err != nil {
				return err
			}
			for tr.Epoch() {
			}
			tr.Result()
			return nil
		}},
	} {
		allocs := func(samples int) float64 {
			train := syntheticOracleData(samples, 5)
			val := syntheticOracleData(50, 6)
			rng := stats.NewRNG(7)
			n := NewRegressor(4, rng)
			return testing.AllocsPerRun(2, func() {
				if err := c.fit(n, train, val, rng); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(200), allocs(2000)
		if small != large {
			t.Fatalf("%s allocs: %v at 200 samples, %v at 2000 — allocation per sample or step", c.name, small, large)
		}
		t.Logf("%s allocs per call: %v at both sizes", c.name, small)
	}
}

// BenchmarkTrain is one oracle-sized fit: the safety hijacker's network
// on 1,204 synthetic four-wide samples (an oracle's data volume; the
// program's oracle rows are six-wide) split 60/40, 20 epochs of batch 32.
func BenchmarkTrain(b *testing.B) {
	ds := syntheticOracleData(1204, 3)
	train, val := ds.Split(0.6, stats.NewRNG(4))
	cfg := TrainConfig{Epochs: 20, BatchSize: 32, LR: 1e-3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(int64(i))
		if _, err := Train(NewRegressor(4, rng), train, val, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}
