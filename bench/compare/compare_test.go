package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f, add float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x*f + add
	}
	return out
}

// steady is ten runs with a 2% spread around 100.
var steady = []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}

func TestJudgeVerdicts(t *testing.T) {
	lower := metricDecl{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "episodes_per_s", Better: "higher", Bound: 0.1}
	wide := []float64{50, 150, 60, 140, 100, 90, 110, 70, 130, 100}
	for _, tc := range []struct {
		name         string
		d            metricDecl
		base, change []float64
		want         string
	}{
		{"faster in every pair", lower, steady, scaled(steady, 0.8, 0), "better"},
		{"same runs", lower, steady, steady, "no-worse"},
		{"slower within the bound", lower, steady, scaled(steady, 1, 5), "no-worse"},
		{"wins every pair but by less than the spread", lower, steady, scaled(steady, 1, -0.5), "no-worse"},
		{"slower beyond the bound", lower, steady, scaled(steady, 1.2, 0), "worse"},
		{"spread wider than the bound", lower, wide, scaled(wide, 0.95, 0), "unresolved"},
		{"spread wider than the bound but every run better", lower, wide, scaled(steady, 0.3, 0), "better"},
		{"higher is better", higher, steady, scaled(steady, 1.3, 0), "better"},
		{"lower throughput beyond the bound", higher, steady, scaled(steady, 0.8, 0), "worse"},
		{"no runs", lower, nil, steady, "unresolved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := judge("w", tc.d, tc.base, tc.change); got.Verdict != tc.want {
				t.Errorf("verdict %q, want %q (%+v)", got.Verdict, tc.want, got)
			}
		})
	}
}

func TestJudgeFailures(t *testing.T) {
	clean := []runReport{{Attempted: 10}, {Attempted: 10}, {Attempted: 10}}
	failing := []runReport{{Attempted: 10, Failed: 1}, {Attempted: 10, Failed: 1}, {Attempted: 10}}
	if got := judgeFailures("w", clean, clean).Verdict; got != "no-worse" {
		t.Errorf("equal failures: %q, want no-worse", got)
	}
	if got := judgeFailures("w", clean, failing).Verdict; got != "worse" {
		t.Errorf("more failures: %q, want worse", got)
	}
	if got := judgeFailures("w", failing, clean).Verdict; got != "no-worse" {
		t.Errorf("fewer failures: %q, want no-worse", got)
	}
}

// writeRuns writes one report per value under dir/<side>-<i>/w.json.
func writeRuns(t *testing.T, dir, side string, vals []float64, failed int) {
	t.Helper()
	for i, v := range vals {
		d := filepath.Join(dir, fmt.Sprintf("%s-%02d", side, i))
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(map[string]any{
			"workload": "table2", "traced": false, "attempted": 10, "failed": failed,
			"metrics": map[string]any{"op_ms_p50": map[string]any{"value": v, "unit": "ms"}},
		})
		if err := os.WriteFile(filepath.Join(d, "table2.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunExitStatus(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	writeRuns(t, dir, "base", steady, 0)
	writeRuns(t, dir, "same", steady, 0)
	writeRuns(t, dir, "slow", scaled(steady, 1.5, 0), 0)
	for _, tc := range []struct {
		change string
		code   int
		want   string
	}{
		{"same", 0, "no-worse"},
		{"slow", 1, "worse"},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"-benchmark", bench, "-base", filepath.Join(dir, "base-*", "*.json"),
			"-change", filepath.Join(dir, tc.change+"-*", "*.json")}, &out, &errOut)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (%s)", tc.change, code, tc.code, errOut.String())
		}
		if !strings.Contains(out.String(), "op_ms_p50") || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output lacks a %s op_ms_p50 row:\n%s", tc.change, tc.want, out.String())
		}
	}
}
