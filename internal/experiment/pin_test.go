package experiment_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"runtime"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/engine"
	"github.com/robotack/robotack/internal/experiment"
	"github.com/robotack/robotack/internal/nn"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/scenario"
)

// attackPathDigests are the SHA-256 digests of every attack path's
// output at pinSeed: per group, the JSON episode records and aggregate
// of each campaign in order, and the training samples of each oracle
// spec. A change to the launch path or the campaign runner that moves
// any episode moves its group's digest.
var attackPathDigests = map[string]string{
	"golden":           "33d9fd84360e6cef641aad25dd561b04179c7cce7ee62c06438e3c57fb8e7e57",
	"smart":            "25c11a0758f34c768e415464440941d215798c726c9b1b871fb1bba7bd99dc27",
	"shaped":           "33961d80314675a79bffad0428f3842d880b5a1fca2cf2ec5794c21f06faa9f2",
	"noSH":             "740686476a96be955a64b1ecd119dd492111eda88b5fb0f476fef964954d0f23",
	"random":           "ef2fc127a0b606bb2436f153eee015a69f59c63e485fea3d8e9b597efffaf0f4",
	"oracle-Disappear": "50c50bcc2fc9bfdf626828566b0a118215d6b4f68763170c5d805c898bbd5eca",
	"oracle-Move_Out":  "f0ec757867779f76f0cc65b905b7728a727facb3dff0618bd7e0cce5fbf2cbe3",
	"oracle-Move_In":   "17a8faca3545f4441158e3e62bfb5fd8210591a199bbed3a51d5f649482e6dc5",
}

const (
	pinRuns = 12
	pinSeed = 2024
)

// pinCampaigns lists each attack path's campaigns on DS-1..DS-5: the
// golden runs, smart mode under the paper's trigger and under a shaped
// one (onset delay, offset and step scales, swapped masking), R w/o SH
// and Baseline-Random.
func pinCampaigns() map[string][]experiment.Campaign {
	shaped := core.DefaultSafetyHijackerConfig()
	shaped.Delay, shaped.OffsetScale, shaped.OffsetBiasM, shaped.StepScale, shaped.SwapMasking = 6, 1.4, 0.3, 0.7, true
	smart := []experiment.Campaign{{Name: "DS-5-R", Scenario: scenario.DS5, Mode: core.ModeSmart, ExpectCrashes: true}}
	for _, c := range experiment.TableIICampaigns() {
		if c.Mode == core.ModeSmart {
			smart = append(smart, c)
		}
	}
	groups := map[string][]experiment.Campaign{"smart": smart}
	for _, c := range smart {
		groups["shaped"] = append(groups["shaped"], c.WithPolicy("shaped", shaped))
		groups["noSH"] = append(groups["noSH"], c.WithoutSH())
	}
	for id := scenario.DS1; id <= scenario.DS5; id++ {
		groups["golden"] = append(groups["golden"], experiment.Campaign{
			Name: "golden-" + id.Label(), Scenario: id, ExpectCrashes: true})
		groups["random"] = append(groups["random"], experiment.Campaign{
			Name: id.Label() + "-Baseline-Random", Scenario: id, Mode: core.ModeRandom, ExpectCrashes: true})
	}
	return groups
}

// TestAttackPathDigests holds every attack path's episodes, and the
// forced-launch training data, to the digests above, so the launch
// paths and the batch runners can be restructured against a fixed
// reference. The bits are amd64's: another architecture may fuse
// multiply-adds.
func TestAttackPathDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	eng := engine.New(engine.WithWorkers(2))
	got := make(map[string]string)
	for name, cs := range pinCampaigns() {
		h := sha256.New()
		store := results.NewMemStore()
		launched := 0
		for _, c := range cs {
			res, err := experiment.RunCampaignOn(eng, c, pinRuns, pinSeed, nil, experiment.WithSink(store))
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			eps, err := store.Episodes(c.Name)
			if err != nil {
				t.Fatal(err)
			}
			if len(eps) != pinRuns {
				t.Fatalf("%s: %d episodes stored, want %d", c.Name, len(eps), pinRuns)
			}
			writeJSON(t, h, eps)
			writeJSON(t, h, res.CampaignRecord)
			launched += res.Launched
		}
		if (name == "golden") != (launched == 0) {
			t.Errorf("%s: %d launches", name, launched)
		}
		got[name] = hex.EncodeToString(h.Sum(nil))
	}
	for i, spec := range experiment.DefaultOracleSpecs() {
		ds, err := experiment.GenerateOracleDataOn(eng, spec, pinSeed+int64(i)*10_000)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for j, x := range ds.X {
			for _, v := range x {
				writeFloat(h, v)
			}
			writeFloat(h, ds.Y[j])
		}
		got["oracle-"+spec.Vector.String()] = hex.EncodeToString(h.Sum(nil))
	}
	for name, want := range attackPathDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(attackPathDigests) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(attackPathDigests))
	}
}

// oracleFitDigests are the SHA-256 digests of the production oracle fit
// at pinSeed, per vector: of the fitted weights then biases of every
// layer (layer order, row-major), and of the nn.Result bits (TrainMSE,
// ValMSE, ValMAE).
var oracleFitDigests = map[string][2]string{
	"Disappear": {
		"5506b31d34671fc47461e6c1e12989e0801d185a1de8c9f9e7657f5404c4409a",
		"5ca89249283e863ee931872ae56b7bb334458dd670f6223e1cd6ef409fbe6acb",
	},
	"Move_Out": {
		"6e96bf13884da3e0105f4838d0ef779b5f99ff5639d8629fc2ab04ffb0b3b990",
		"14b21635679d404c1aaffcf6b277c87136b5f84addfd7667caf76578f1247cf9",
	},
	"Move_In": {
		"d2a4cf9ffda0f2cbd1c4ab3ef8b8572e1430ab13dc89df45a10e6dcec065cae4",
		"2e76e0059f027bd0383faffd644a3c5189dedbd578d95b9b3e6df1d86a4aabb6",
	},
}

// TestOracleFitDigests holds the 60-epoch recipe that robotack-campaign
// fits its oracles with, on the DefaultOracleSpecs data, to the digests
// above, so the training kernels can be restructured against a
// full-size reference. The bits are amd64's: another architecture may
// fuse multiply-adds.
func TestOracleFitDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the three oracle datasets and fits 60 epochs each")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	_, infos, err := experiment.TrainOraclesOn(engine.New(engine.WithWorkers(2)),
		experiment.DefaultOracleSpecs(), pinSeed, nn.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(oracleFitDigests) {
		t.Fatalf("%d oracles fitted, %d pinned", len(infos), len(oracleFitDigests))
	}
	for _, info := range infos {
		weights := sha256.New()
		for _, d := range info.Net.Layers {
			for _, p := range [][]float64{d.W, d.B} {
				for _, v := range p {
					writeFloat(weights, v)
				}
			}
		}
		result := sha256.New()
		for _, v := range []float64{info.Result.TrainMSE, info.Result.ValMSE, info.Result.ValMAE} {
			writeFloat(result, v)
		}
		got := [2]string{hex.EncodeToString(weights.Sum(nil)), hex.EncodeToString(result.Sum(nil))}
		if want := oracleFitDigests[info.Vector.String()]; got != want {
			t.Errorf("%v: weight, result digests %s, %s; want %s, %s", info.Vector, got[0], got[1], want[0], want[1])
		}
	}
}

func writeFloat(h hash.Hash, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	h.Write(buf[:])
}

func writeJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(raw)
}
