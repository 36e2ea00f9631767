package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tinySizes shrinks every workload to a smoke test.
var tinySizes = sizes{
	setupReps:        1,
	perCampaign:      4,
	warmPerCampaign:  2,
	trainEpochs:      20,
	fleetWarmRuns:    2,
	fleetRunEpisodes: 2,
	recomputeEvery:   1,
	replayEvery:      2,
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runWorkload runs one workload in-process and returns its printed
// output, failing the test when the run is incorrect.
func runWorkload(t *testing.T, b *benchRun) (result, string) {
	t.Helper()
	if err := workloads[b.workload](b); err != nil {
		t.Fatalf("%s: %v", b.workload, err)
	}
	res, err := b.finish(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	b.print(&out, &errOut, res)
	return res, out.String()
}

// checkPrinted checks the printed result line names exactly the
// catalogued metrics and every printed line is "workload metric value
// unit".
func checkPrinted(t *testing.T, workload string, out string, want []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("result metric %s = %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != workload || !metricName.MatchString(f[1]) {
			t.Errorf("malformed metric line %q", line)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadOrder {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if testing.Short() && (w == "table2-nn" || w == "oracle-train") {
					t.Skip("trains oracles")
				}
				b := newBenchRun(w, 7, 0, tinySizes, traced)
				res, out := runWorkload(t, b)
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("run failed: %v", b.problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				checkPrinted(t, w, out, want)
				if traced {
					if res.Metrics["closure.frac"].Value <= 0 || res.Metrics["sensor.capture_ns_per_frame"].Value <= 0 {
						t.Errorf("no frame layers replayed: %+v", res.Metrics)
					}
				}
			})
		}
	}
}

// TestCorruptedDigestFailsTheRun runs table2 at the default seed and
// size: the committed digests pass, and one corrupted digest fails
// exactly its campaign.
func TestCorruptedDigestFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full Table II rounds")
	}
	for _, corrupt := range []bool{false, true} {
		b := newBenchRun("table2", defaultSeed, 0, defaultSizes, false)
		if b.expect == nil {
			t.Fatal("no committed expectations at the default seed and size")
		}
		b.sizes.setupReps = 1 // set-ups do not change the outputs
		if corrupt {
			digests := make(map[string]string)
			for k, v := range committed.Digests["table2"] {
				digests[k] = v
			}
			digests["DS-2-Disappear-R"] = strings.Repeat("0", 64)
			b.expect = &expectations{Digests: map[string]map[string]string{"table2": digests}}
		}
		res, _ := runWorkload(t, b)
		switch {
		case !corrupt && !res.Correct:
			t.Errorf("committed digests fail: %v", b.problems)
		case corrupt && (res.Correct || res.Failed != 1 || !b.failedOps["round 0 DS-2-Disappear-R"]):
			t.Errorf("corrupted digest: correct=%v failed=%d problems=%v", res.Correct, res.Failed, b.problems)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON pins the printed metric names and
// units, and the workloads, to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadOrder)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
			if !metricName.MatchString(got[i].Name) {
				t.Errorf("%s: bad metric name %q", kind, got[i].Name)
			}
			if got[i].Better != "higher" && got[i].Better != "lower" {
				t.Errorf("%s: %s better = %q", kind, got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}

// TestNoLanesAPI keeps the benchmark off the episode-lane API, so the
// change that deletes it can be measured with this benchmark unchanged.
func TestNoLanesAPI(t *testing.T) {
	forbidden := map[string]bool{
		"WithEpisodeBatch": true, "WithWorkerGroupState": true, "GroupState": true,
		"InferBatcher": true, "InferBatch": true, "BatchScratch": true,
		"MulBatchInto": true, "EpisodeBatch": true,
	}
	var files []string
	for _, pat := range []string{"*.go", "*/*.go"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var id *ast.Ident
			switch n := n.(type) {
			case *ast.SelectorExpr:
				id = n.Sel
			case *ast.KeyValueExpr:
				id, _ = n.Key.(*ast.Ident)
			}
			if id != nil && forbidden[id.Name] {
				t.Errorf("%s: references %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

func TestSelfTime(t *testing.T) {
	spans := []spanData{
		{Name: "parent", ID: 1, Start: 0, End: 10e6},
		{Name: "child", ID: 2, Parent: 1, Start: 1e6, End: 3e6},
		{Name: "child", ID: 3, Parent: 1, Start: 2e6, End: 5e6},
		{Name: "child", ID: 4, Parent: 1, Start: 8e6, End: 12e6}, // clipped to the parent
	}
	lt := selfTimes(spans)
	if got := lt["parent"]; got.Count != 1 || got.TotalMS != 10 || got.SelfMS != 4 {
		t.Errorf("parent %+v, want count 1, total 10 ms, self 4 ms", got)
	}
	if got := lt["child"]; got.Count != 3 || got.SelfMS != 9 {
		t.Errorf("children %+v, want count 3, self 9 ms", got)
	}
}
