// Command compare judges a change against its parent from paired runs
// of the repository benchmark. Each run writes DIR/<workload>.json; give
// compare the parent's reports and the change's, run in alternating
// order, as two glob patterns:
//
//	go run ./compare -base 'runs/base-*/*.json' -change 'runs/change-*/*.json'
//
// For every workload and end-to-end metric it prints both sides' median
// and quartiles, the share of pairs the change wins (ties count for
// neither side) and a verdict against the metric's bound in
// BENCHMARK.json:
//
//   - unresolved: either side's spread (quartile distance over median)
//     exceeds the bound, and not every change run beats every base run;
//   - worse: the change's median is worse than the base's by more than
//     the bound;
//   - better: the change wins at least nine pairs in ten and its median
//     beats the base's by more than the base's quartile distance;
//   - no-worse: anything else.
//
// A failed_frac row per workload (failed ÷ attempted operations) is
// worse whenever the change's median fails more than the base's. The
// exit status is 1 when any row is worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"github.com/robotack/robotack/bench/stat"
)

// metricDecl is an end-to-end metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runReport is the part of a benchmark report compare reads.
type runReport struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// row is one workload × metric comparison.
type row struct {
	Workload, Metric string
	Base, Change     summary
	WinFrac          float64
	Pairs            int
	Verdict          string
}

// summary is one side's median and quartiles (Python's
// statistics.quantiles(n=4), as the acceptance check computes them).
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePat := fs.String("base", "", "glob of the parent's run reports")
	changePat := fs.String("change", "", "glob of the change's run reports")
	benchPath := fs.String("benchmark", "../BENCHMARK.json", "BENCHMARK.json with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *basePat == "" || *changePat == "" {
		fmt.Fprintln(stderr, "compare: -base and -change are required")
		return 2
	}
	decls, err := loadDecls(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	base, err := loadRuns(*basePat)
	if err == nil {
		var change map[string][]runReport
		change, err = loadRuns(*changePat)
		if err == nil {
			rows := compare(decls, base, change)
			printRows(stdout, rows)
			for _, r := range rows {
				if r.Verdict == "worse" {
					return 1
				}
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

func loadDecls(path string) ([]metricDecl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []metricDecl `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// loadRuns reads the untraced reports matching pattern, grouped by
// workload in file-name order (the pair order).
func loadRuns(pattern string) (map[string][]runReport, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no reports match %q", pattern)
	}
	sort.Strings(files)
	out := make(map[string][]runReport)
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runReport
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Traced {
			continue // layer tables and traced runs carry no end-to-end metrics
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, nil
}

// compare builds every row: each declared metric and failed_frac for
// every workload both sides ran.
func compare(decls []metricDecl, base, change map[string][]runReport) []row {
	var workloads []string
	for w := range base {
		if _, ok := change[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	var rows []row
	for _, w := range workloads {
		for _, d := range decls {
			rows = append(rows, judge(w, d, values(base[w], d.Name), values(change[w], d.Name)))
		}
		rows = append(rows, judgeFailures(w, base[w], change[w]))
	}
	return rows
}

func values(runs []runReport, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge applies the pair rule to one metric.
func judge(workload string, d metricDecl, base, change []float64) row {
	r := row{Workload: workload, Metric: d.Name, Base: summarize(base), Change: summarize(change)}
	// gain is how much better b is than a in the metric's direction.
	gain := func(a, b float64) float64 {
		if d.Better == "higher" {
			return b - a
		}
		return a - b
	}
	r.Pairs = min(len(base), len(change))
	if r.Pairs == 0 {
		r.Verdict = "unresolved"
		return r
	}
	wins := 0
	for i := 0; i < r.Pairs; i++ {
		if gain(base[i], change[i]) > 0 {
			wins++
		}
	}
	r.WinFrac = float64(wins) / float64(r.Pairs)
	allBetter := true
	for _, b := range base {
		for _, c := range change {
			if gain(b, c) <= 0 {
				allBetter = false
			}
		}
	}
	medGain := gain(r.Base.Median, r.Change.Median)
	switch {
	case max(spread(r.Base), spread(r.Change)) > d.Bound && !allBetter:
		r.Verdict = "unresolved"
	case -medGain > d.Bound*math.Abs(r.Base.Median):
		r.Verdict = "worse"
	case r.WinFrac >= 0.9 && medGain > r.Base.Q3-r.Base.Q1:
		r.Verdict = "better"
	default:
		r.Verdict = "no-worse"
	}
	return r
}

// judgeFailures compares the share of failed operations per run.
func judgeFailures(workload string, base, change []runReport) row {
	frac := func(runs []runReport) []float64 {
		out := make([]float64, len(runs))
		for i, r := range runs {
			if r.Attempted > 0 {
				out[i] = float64(r.Failed) / float64(r.Attempted)
			}
		}
		return out
	}
	r := row{Workload: workload, Metric: "failed_frac", Base: summarize(frac(base)), Change: summarize(frac(change)),
		Pairs: min(len(base), len(change)), Verdict: "no-worse"}
	if r.Change.Median > r.Base.Median {
		r.Verdict = "worse"
	}
	return r
}

func spread(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(xs []float64) summary {
	q1, q3 := stat.Quartiles(xs)
	return summary{Median: stat.Median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-13s %-15s %12s %25s %12s %25s %6s %s\n",
		"workload", "metric", "base", "[q1, q3]", "change", "[q1, q3]", "win", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %-15s %12.5g %25s %12.5g %25s %6.2f %s\n",
			r.Workload, r.Metric, r.Base.Median, fmt.Sprintf("[%.5g, %.5g]", r.Base.Q1, r.Base.Q3),
			r.Change.Median, fmt.Sprintf("[%.5g, %.5g]", r.Change.Q1, r.Change.Q3), r.WinFrac, r.Verdict)
	}
}
