package experiment

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/robotack/robotack/internal/core"
	"github.com/robotack/robotack/internal/results"
	"github.com/robotack/robotack/internal/stats"
)

// The report formatters operate on persistent campaign records, not
// live results: Table II and Figs. 6-8 can be regenerated from any
// results.Store (a JSONL file from last week, a resumed sweep, the
// campaign service's store) exactly as from a freshly run campaign.
// Freshly run sweeps pass through experiment.Records.

// FormatTableII renders the Table II attack summary.
func FormatTableII(recs []results.CampaignRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %5s %6s %12s %14s\n", "ID", "K", "#runs", "#EB (%)", "#crashes (%)")
	for i := range recs {
		r := &recs[i]
		crash := "—"
		if r.ExpectCrashes {
			crash = fmt.Sprintf("%d (%.1f%%)", r.Crashes, 100*r.CrashRate())
		}
		k := "K*" // Baseline-Random draws K* at random
		if r.Mode != core.ModeRandom {
			k = fmt.Sprintf("%.0f", r.MedianK())
		}
		fmt.Fprintf(&b, "%-24s %5s %6d %12s %14s\n",
			r.Name, k, r.Runs,
			fmt.Sprintf("%d (%.1f%%)", r.EBs, 100*r.EBRate()), crash)
	}
	return b.String()
}

// FormatFig5 renders the detector characterization.
func FormatFig5(c Characterization) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 5 — detector characterization over %d frames\n", c.Frames)
	for _, cc := range []ClassCharacterization{c.Pedestrian, c.Vehicle} {
		fmt.Fprintf(&b, "  %s (%d boxes, %d miss runs)\n", cc.Class, cc.Samples, cc.Runs)
		fmt.Fprintf(&b, "    misdetection runs: %v\n", cc.MissRuns)
		fmt.Fprintf(&b, "    bbox center dx:    %v\n", cc.ErrX)
		fmt.Fprintf(&b, "    bbox center dy:    %v\n", cc.ErrY)
	}
	return b.String()
}

// Fig6Row pairs the with-SH and without-SH min-delta boxes for one
// campaign.
type Fig6Row struct {
	Name   string
	WithSH stats.BoxStats
	NoSH   stats.BoxStats
}

// Fig6Rows computes the Fig. 6 boxplot series from paired campaign
// records.
func Fig6Rows(withSH, noSH []results.CampaignRecord) []Fig6Row {
	rows := make([]Fig6Row, 0, len(withSH))
	for i := range withSH {
		if i >= len(noSH) {
			break
		}
		row := Fig6Row{Name: withSH[i].Name}
		if box, err := stats.Box(withSH[i].MinDeltas); err == nil {
			row.WithSH = box
		}
		if box, err := stats.Box(noSH[i].MinDeltas); err == nil {
			row.NoSH = box
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatFig6 renders the min safety potential boxplots.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("Fig. 6 — min safety potential delta (m), R vs R w/o SH (accident line at 4 m)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s R:      %v\n", r.Name, r.WithSH)
		fmt.Fprintf(&b, "  %-22s R w/oSH: %v\n", "", r.NoSH)
	}
	return b.String()
}

// FormatFig7 renders the K' (shift time) boxplots per attack vector for
// vehicles and pedestrians.
func FormatFig7(recs []results.CampaignRecord) string {
	var b strings.Builder
	b.WriteString("Fig. 7 — shift time K' (frames) needed to move the object by Omega\n")
	for i := range recs {
		r := &recs[i]
		if len(r.KPrimes) == 0 {
			continue
		}
		if box, err := stats.Box(r.KPrimes); err == nil {
			fmt.Fprintf(&b, "  %-22s %v\n", r.Name, box)
		}
	}
	return b.String()
}

// Fig8Bin is one bar of Fig. 8(a): attack success probability within a
// prediction-error bin.
type Fig8Bin struct {
	ErrLo, ErrHi float64
	N            int
	SuccessRate  float64
}

// Fig8Bins computes success probability vs binned oracle prediction
// error across smart campaigns.
func Fig8Bins(recs []results.CampaignRecord, nbins int, maxErr float64) []Fig8Bin {
	type pair struct {
		err     float64
		success bool
	}
	var pairs []pair
	for _, r := range recs {
		for i := range r.Predicted {
			e := r.Predicted[i] - r.Realized[i]
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				e = maxErr
			}
			pairs = append(pairs, pair{err: e, success: r.Successes[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].err < pairs[j].err })
	bins := make([]Fig8Bin, nbins)
	width := maxErr / float64(nbins)
	for i := range bins {
		bins[i].ErrLo = float64(i) * width
		bins[i].ErrHi = float64(i+1) * width
	}
	for _, p := range pairs {
		idx := int(p.err / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		bins[idx].N++
		if p.success {
			bins[idx].SuccessRate++
		}
	}
	for i := range bins {
		if bins[i].N > 0 {
			bins[i].SuccessRate /= float64(bins[i].N)
		}
	}
	return bins
}

// FormatFig8 renders the prediction-error study. Fig8Bins clamps every
// error above its range into the last bin, so that bar prints
// open-ended, as [lo, +Inf).
func FormatFig8(bins []Fig8Bin, recs []results.CampaignRecord) string {
	var b strings.Builder
	b.WriteString("Fig. 8(a) — attack success probability vs |oracle prediction error| (m)\n")
	for i, bin := range bins {
		if bin.N == 0 {
			continue
		}
		hi := bin.ErrHi
		if i == len(bins)-1 {
			hi = math.Inf(1)
		}
		fmt.Fprintf(&b, "  [%4.1f, %4.1f) n=%3d success=%.2f\n", bin.ErrLo, hi, bin.N, bin.SuccessRate)
	}
	b.WriteString("Fig. 8(b) — predicted vs realized delta_{t+K} (m)\n")
	for i := range recs {
		r := &recs[i]
		var errs []float64
		for i := range r.Predicted {
			e := r.Predicted[i] - r.Realized[i]
			if e < 0 {
				e = -e
			}
			errs = append(errs, e)
		}
		if len(errs) == 0 {
			continue
		}
		mae := stats.Mean(errs)
		fmt.Fprintf(&b, "  %-22s n=%3d MAE=%.2f m\n", r.Name, len(errs), mae)
	}
	return b.String()
}

// Summary aggregates the paper's §VI headline numbers across campaigns.
// The pedestrian/vehicle split counts launched episodes by the target
// class the malware actually attacked (recorded per episode), so
// generated scenarios and unconventionally named campaigns summarize
// correctly.
type Summary struct {
	Runs, EBs, Crashes  int
	CrashEligibleRuns   int
	PedRuns, PedSuccess int
	VehRuns, VehSuccess int
}

// SplitByMode separates the smart campaigns from the random baseline,
// each in the order given, for the headline summary and Fig. 8: golden
// (mode 0) and noSH campaigns belong to neither side.
func SplitByMode(recs []results.CampaignRecord) (robo, base []results.CampaignRecord) {
	for _, r := range recs {
		switch r.Mode {
		case core.ModeSmart:
			robo = append(robo, r)
		case core.ModeRandom:
			base = append(base, r)
		}
	}
	return robo, base
}

// Summarize folds campaign records into the headline aggregates.
func Summarize(recs []results.CampaignRecord) Summary {
	var s Summary
	for i := range recs {
		r := &recs[i]
		s.Runs += r.Runs
		s.EBs += r.EBs
		if r.ExpectCrashes {
			s.Crashes += r.Crashes
			s.CrashEligibleRuns += r.Runs
		}
		s.PedRuns += r.PedLaunched
		s.PedSuccess += r.PedEBs
		s.VehRuns += r.VehLaunched
		s.VehSuccess += r.VehEBs
	}
	return s
}

// FormatSummary renders the headline aggregates.
func FormatSummary(robotack, baseline Summary) string {
	var b strings.Builder
	rate := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	fmt.Fprintf(&b, "RoboTack: EB %d/%d (%.1f%%), crashes %d/%d (%.1f%%)\n",
		robotack.EBs, robotack.Runs, rate(robotack.EBs, robotack.Runs),
		robotack.Crashes, robotack.CrashEligibleRuns, rate(robotack.Crashes, robotack.CrashEligibleRuns))
	fmt.Fprintf(&b, "Baseline: EB %d/%d (%.1f%%), crashes %d/%d (%.1f%%)\n",
		baseline.EBs, baseline.Runs, rate(baseline.EBs, baseline.Runs),
		baseline.Crashes, baseline.CrashEligibleRuns, rate(baseline.Crashes, baseline.CrashEligibleRuns))
	fmt.Fprintf(&b, "Pedestrian-target success %.1f%% vs vehicle-target %.1f%%\n",
		rate(robotack.PedSuccess, robotack.PedRuns), rate(robotack.VehSuccess, robotack.VehRuns))
	return b.String()
}
