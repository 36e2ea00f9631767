package experiment

import (
	"strings"
	"testing"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/results"
)

// reportRecords is the fixed input of the golden-string tests: a smart
// campaign, a crash-ineligible Move_In campaign, and the random
// baseline (whose K column must read "K*").
func reportRecords() []results.CampaignRecord {
	smart := results.NewCampaign("DS-2-Disappear-R", "DS-2", core.ModeSmart, true, 1)
	smart.Runs, smart.Launched, smart.EBs, smart.Crashes = 10, 10, 9, 8
	smart.Ks = []float64{14, 15, 16}
	smart.KPrimes = []float64{4, 5, 6}
	smart.MinDeltas = []float64{2, 3, 4}
	smart.Predicted = []float64{5, 6}
	smart.Realized = []float64{4, 8}
	smart.Successes = []bool{true, false}
	smart.PedLaunched, smart.PedEBs = 10, 9

	movein := results.NewCampaign("DS-3-Move_In-R", "DS-3", core.ModeSmart, false, 1)
	movein.Runs, movein.Launched, movein.EBs = 8, 6, 4
	movein.Ks = []float64{20, 22}
	movein.PedLaunched, movein.PedEBs = 6, 4

	random := results.NewCampaign("DS-5-Baseline-Random", "DS-5", core.ModeRandom, true, 1)
	random.Runs, random.Launched, random.EBs, random.Crashes = 10, 7, 2, 1
	random.Ks = []float64{9}
	random.VehLaunched, random.VehEBs = 7, 2

	return []results.CampaignRecord{smart, movein, random}
}

func TestFormatTableIIGolden(t *testing.T) {
	want := "" +
		"ID                           K  #runs      #EB (%)   #crashes (%)\n" +
		"DS-2-Disappear-R            15     10    9 (90.0%)      8 (80.0%)\n" +
		"DS-3-Move_In-R              21      8    4 (50.0%)              —\n" +
		"DS-5-Baseline-Random        K*     10    2 (20.0%)      1 (10.0%)\n"
	if got := FormatTableII(reportRecords()); got != want {
		t.Errorf("FormatTableII:\n got %q\nwant %q", got, want)
	}
}

func TestFormatSummaryGolden(t *testing.T) {
	recs := reportRecords()
	robotack := Summarize(recs[:2])
	baseline := Summarize(recs[2:])
	want := "" +
		"RoboTack: EB 13/18 (72.2%), crashes 8/10 (80.0%)\n" +
		"Baseline: EB 2/10 (20.0%), crashes 1/10 (10.0%)\n" +
		"Pedestrian-target success 81.2% vs vehicle-target 0.0%\n"
	if got := FormatSummary(robotack, baseline); got != want {
		t.Errorf("FormatSummary:\n got %q\nwant %q", got, want)
	}
}

func TestSummarizeClassifiesByRecordedTargetClass(t *testing.T) {
	// The campaign name carries no DS hint at all: the split must come
	// from the per-episode target classes folded into the record.
	rec := results.NewCampaign("generated-sweep", "generated", core.ModeSmart, true, 1)
	rec.Runs, rec.Launched, rec.EBs, rec.Crashes = 10, 9, 6, 3
	rec.PedLaunched, rec.PedEBs = 4, 3
	rec.VehLaunched, rec.VehEBs = 5, 2
	s := Summarize([]results.CampaignRecord{rec})
	if s.PedRuns != 4 || s.PedSuccess != 3 {
		t.Errorf("ped split = %d/%d, want 3/4", s.PedSuccess, s.PedRuns)
	}
	if s.VehRuns != 5 || s.VehSuccess != 2 {
		t.Errorf("veh split = %d/%d, want 2/5", s.VehSuccess, s.VehRuns)
	}
	if s.Runs != 10 || s.EBs != 6 || s.Crashes != 3 || s.CrashEligibleRuns != 10 {
		t.Errorf("summary = %+v", s)
	}
}

func TestFigureFormatters(t *testing.T) {
	recs := reportRecords()
	rows := Fig6Rows(recs, recs)
	if out := FormatFig6(rows); !strings.Contains(out, "med=3.00") {
		t.Errorf("Fig 6 output malformed:\n%s", out)
	}
	if out := FormatFig7(recs); !strings.Contains(out, "DS-2") {
		t.Error("Fig 7 output malformed")
	}
	bins := Fig8Bins(recs, 5, 10)
	total := 0
	for _, b := range bins {
		total += b.N
	}
	if total != 2 {
		t.Errorf("Fig 8 bins hold %d samples, want 2", total)
	}
	if out := FormatFig8(bins, recs); !strings.Contains(out, "MAE") {
		t.Error("Fig 8 output malformed")
	}
}

// TestFormatFig8LastBinOpenEnded: Fig8Bins clamps an error above
// maxErr into the last bin, so FormatFig8 prints that bar open-ended
// rather than as a range that excludes what it holds.
func TestFormatFig8LastBinOpenEnded(t *testing.T) {
	rec := results.NewCampaign("fig8", "DS-2", core.ModeSmart, true, 1)
	rec.Predicted, rec.Realized, rec.Successes = []float64{0.5, 9}, []float64{0, 0}, []bool{true, false}
	out := FormatFig8(Fig8Bins([]results.CampaignRecord{rec}, 10, 6.7), nil)
	for _, want := range []string{
		"  [ 0.0,  0.7) n=  1 success=1.00\n",
		"  [ 6.0, +Inf) n=  1 success=0.00\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig. 8 output lacks %q:\n%s", want, out)
		}
	}
}

func TestFig8BinsEdgeCases(t *testing.T) {
	mk := func(pred, real []float64, succ []bool) results.CampaignRecord {
		rec := results.NewCampaign("fig8", "DS-2", core.ModeSmart, true, 1)
		rec.Predicted, rec.Realized, rec.Successes = pred, real, succ
		return rec
	}
	cases := []struct {
		name     string
		recs     []results.CampaignRecord
		nbins    int
		maxErr   float64
		wantN    []int
		wantSR   []float64
		wantLoHi [][2]float64
	}{
		{
			name:     "empty input",
			recs:     nil,
			nbins:    3,
			maxErr:   6,
			wantN:    []int{0, 0, 0},
			wantSR:   []float64{0, 0, 0},
			wantLoHi: [][2]float64{{0, 2}, {2, 4}, {4, 6}},
		},
		{
			name: "error exactly at maxErr clamps into the last bin",
			recs: []results.CampaignRecord{
				mk([]float64{10}, []float64{0}, []bool{true}),
			},
			nbins:  5,
			maxErr: 10,
			wantN:  []int{0, 0, 0, 0, 1},
			wantSR: []float64{0, 0, 0, 0, 1},
		},
		{
			name: "single bin takes everything",
			recs: []results.CampaignRecord{
				mk([]float64{0, 5, 20}, []float64{0, 0, 0}, []bool{true, false, true}),
			},
			nbins:    1,
			maxErr:   10,
			wantN:    []int{3},
			wantSR:   []float64{2.0 / 3.0},
			wantLoHi: [][2]float64{{0, 10}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bins := Fig8Bins(tc.recs, tc.nbins, tc.maxErr)
			if len(bins) != tc.nbins {
				t.Fatalf("got %d bins, want %d", len(bins), tc.nbins)
			}
			for i, b := range bins {
				if b.N != tc.wantN[i] {
					t.Errorf("bin %d: N = %d, want %d", i, b.N, tc.wantN[i])
				}
				if b.SuccessRate != tc.wantSR[i] {
					t.Errorf("bin %d: success = %v, want %v", i, b.SuccessRate, tc.wantSR[i])
				}
				if tc.wantLoHi != nil && (b.ErrLo != tc.wantLoHi[i][0] || b.ErrHi != tc.wantLoHi[i][1]) {
					t.Errorf("bin %d: [%v, %v), want [%v, %v)", i, b.ErrLo, b.ErrHi, tc.wantLoHi[i][0], tc.wantLoHi[i][1])
				}
			}
		})
	}
}
