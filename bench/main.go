// Command bench is the repository benchmark. It drives the Table II
// battery, campaigns with trained NN oracles, oracle training and the
// served campaign fleet through the exported APIs only, checks that
// their outputs are correct, and prints end-to-end metrics (untraced
// run) or per-layer metrics (traced run, -trace 1).
//
// Usage, from the root of a checkout:
//
//	bash bench/run.sh [-workload table2|table2-nn|oracle-train|serve-fleet|all]
//	    [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//
// Each metric prints as one "workload metric value unit" line, the run's
// full report goes to DIR/<workload>.json, and the last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. The exit status is non-zero when any correctness check fails.
// See README.md for the workloads, the metric catalogue and the paired
// comparison protocol.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the committed digests and oracle values in
// expected.json were produced at.
const defaultSeed = 4000

// workloadOrder lists the workloads in the order -workload all runs them.
var workloadOrder = []string{"table2", "table2-nn", "oracle-train", "serve-fleet"}

var workloads = map[string]func(*benchRun) error{
	"table2":       func(b *benchRun) error { return runTable2(b, false) },
	"table2-nn":    func(b *benchRun) error { return runTable2(b, true) },
	"oracle-train": runOracleTrain,
	"serve-fleet":  runFleet,
}

// sizes fixes how much work each operation does and how the run is
// checked. defaultSizes is the benchmark; tests shrink it. The committed
// digests in expected.json hold only at defaultSizes.
type sizes struct {
	setupReps        int // set-ups per run; setup_s is their median
	perCampaign      int // episodes per campaign in one Table II round
	warmPerCampaign  int // warm-up episodes per campaign
	trainEpochs      int // epochs of every oracle training
	fleetWarmRuns    int // warm-up runs of the served fleet
	fleetRunEpisodes int // episodes per served run
	recomputeEvery   int // serve-fleet recomputes every n-th run in-process
	replayEvery      int // the traced run replays every n-th episode
}

var defaultSizes = sizes{
	setupReps:        3,
	perCampaign:      50,
	warmPerCampaign:  20,
	trainEpochs:      60,
	fleetWarmRuns:    10,
	fleetRunEpisodes: 8,
	recomputeEvery:   25,
	replayEvery:      4,
}

// engineWorkers is the engine pool size of every workload: the
// benchmark host has two CPUs, and a fixed count keeps runs comparable
// across hosts that report more.
const engineWorkers = 2

// benchRun is one workload run: its inputs, the recorder of a traced
// run, and what it measured and checked.
type benchRun struct {
	workload string
	seed     int64
	seconds  time.Duration
	sizes    sizes
	rec      *recorder // nil in untraced runs
	// expect holds the committed outputs; nil when they do not apply
	// (another size). Digests and oracle-train's outcomes also hold only
	// at the default seed.
	expect *expectations

	attempted int
	failedOps map[string]bool
	problems  []string
	// outputs are this run's values of the committed outputs.
	outputs expectations
	// opMS are the measured operations' latencies, in order.
	opMS []float64

	metrics map[string]float64
	extra   map[string]valueUnit
}

func newBenchRun(workload string, seed int64, seconds time.Duration, sz sizes, traced bool) *benchRun {
	b := &benchRun{
		workload:  workload,
		seed:      seed,
		seconds:   seconds,
		sizes:     sz,
		failedOps: make(map[string]bool),
		metrics:   make(map[string]float64),
		extra:     make(map[string]valueUnit),
	}
	if traced {
		b.rec = newRecorder()
		for _, m := range perLayer {
			b.metrics[m.Name] = 0
		}
	}
	if sz == defaultSizes {
		b.expect = &committed
	}
	return b
}

// op counts one attempted operation.
func (b *benchRun) op() { b.attempted++ }

// fail marks operation id as failed (once, however many of its checks
// fail) and records why.
func (b *benchRun) fail(id, format string, args ...any) {
	b.failedOps[id] = true
	b.problems = append(b.problems, id+": "+fmt.Sprintf(format, args...))
}

// check fails the run as a whole (not one operation) when ok is false.
func (b *benchRun) check(ok bool, format string, args ...any) {
	if !ok {
		b.fail("check", format, args...)
	}
}

func (b *benchRun) traced() bool { return b.rec != nil }

// set records a catalogued metric: end-to-end ones in untraced runs,
// per-layer ones in traced runs. Values of the other kind are ignored,
// so workloads can set both unconditionally.
func (b *benchRun) set(name string, v float64) {
	if b.traced() == isPerLayer(name) {
		b.metrics[name] = finite(v)
	}
}

// note records an informational value: printed and written to the
// report, never part of the result line.
func (b *benchRun) note(name string, v float64, unit string) {
	b.extra[name] = valueUnit{Value: finite(v), Unit: unit}
}

func finite(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return 0
	}
	return v
}

func isPerLayer(name string) bool {
	for _, m := range perLayer {
		if m.Name == name {
			return true
		}
	}
	return false
}

// valueUnit is one metric value as the result line carries it.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// report is DIR/<workload>.json: the result plus what produced it.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Host     host   `json:"host"`
	result
	Extra    map[string]valueUnit  `json:"extra"`
	OpMS     []float64             `json:"op_ms"`
	Outputs  expectations          `json:"outputs"`
	Layers   map[string]*layerTime `json:"layers,omitempty"`
	Problems []string              `json:"problems,omitempty"`
}

// host describes the machine a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// result assembles the run's result from what it recorded.
func (b *benchRun) result() result {
	defs := endToEnd
	if b.traced() {
		defs = perLayer
	}
	r := result{
		Correct:   len(b.failedOps) == 0,
		Attempted: max(b.attempted, 1),
		Failed:    len(b.failedOps),
		Metrics:   make(map[string]valueUnit, len(defs)),
	}
	for _, m := range defs {
		v, ok := b.metrics[m.Name]
		if !ok {
			r.Correct = false
			b.problems = append(b.problems, "metric "+m.Name+" was not measured")
		}
		r.Metrics[m.Name] = valueUnit{Value: v, Unit: m.Unit}
	}
	return r
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "table2 | table2-nn | oracle-train | serve-fleet | all")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "1: traced run, printing per-layer metrics and writing spans")
	out := fs.String("out", filepath.Join(os.TempDir(), "robotack-bench"), "directory for the JSON reports and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: usage: -workload W -seed N -seconds S -trace 0|1 -out DIR")
		return 2
	}
	if *workload == "all" {
		return runAll(fs, stdout, stderr)
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloadOrder, ", "))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b := newBenchRun(*workload, *seed, time.Duration(*seconds)*time.Second, defaultSizes, *traceFlag == 1)
	if err := fn(b); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	res, err := b.finish(*out, *seconds)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	b.print(stdout, stderr, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// finish writes the run's report (and, traced, its spans and layer
// table) under dir and returns the result line.
func (b *benchRun) finish(dir string, seconds int) (result, error) {
	res := b.result()
	rep := report{Workload: b.workload, Seed: b.seed, Seconds: seconds, Traced: b.traced(),
		Host: hostInfo(), result: res, Extra: b.extra, OpMS: b.opMS, Outputs: b.outputs, Problems: b.problems}
	if b.traced() {
		spans, dropped := b.rec.snapshot()
		rep.Layers = selfTimes(spans)
		b.note("trace.spans", float64(len(spans)), "count")
		b.note("trace.spans_dropped", float64(dropped), "count")
		if err := writeChromeTrace(filepath.Join(dir, b.workload+".trace.json"), spans); err != nil {
			return res, err
		}
		if err := writeJSON(filepath.Join(dir, b.workload+".layers.json"), struct {
			Workload string                `json:"workload"`
			Metrics  map[string]valueUnit  `json:"metrics"`
			Spans    map[string]*layerTime `json:"spans"`
		}{b.workload, res.Metrics, rep.Layers}); err != nil {
			return res, err
		}
	}
	return res, writeJSON(filepath.Join(dir, b.workload+".json"), rep)
}

// print writes the metric lines, the problems and the result line.
func (b *benchRun) print(stdout, stderr io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%s %s %s %s\n", b.workload, n, formatValue(res.Metrics[n].Value), res.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range b.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%s %s %s %s\n", b.workload, n, formatValue(b.extra[n].Value), b.extra[n].Unit)
	}
	for _, p := range b.problems {
		fmt.Fprintf(stderr, "bench: %s: FAIL %s\n", b.workload, p)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runAll re-executes the binary once per workload, one after another,
// so heap, RSS and lazy state do not carry over between workloads. It
// forwards each child's metric lines and ends with one result line
// whose metrics are keyed "<workload>.<metric>".
func runAll(fs *flag.FlagSet, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var base []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "workload" {
			base = append(base, "-"+f.Name, f.Value.String())
		}
	})
	total := result{Correct: true, Metrics: make(map[string]valueUnit)}
	for _, w := range workloadOrder {
		var buf bytes.Buffer
		cmd := exec.Command(self, append([]string{"-workload", w}, base...)...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		runErr := cmd.Run()
		last, err := forwardLines(&buf, stdout)
		var res result
		if err == nil {
			err = json.Unmarshal(last, &res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: no result line (%v, %v)\n", w, runErr, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct && runErr == nil
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, v := range res.Metrics {
			total.Metrics[w+"."+n] = v
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// forwardLines copies every line but the last from r to w and returns
// the last line.
func forwardLines(r io.Reader, w io.Writer) ([]byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var last []byte
	for sc.Scan() {
		if last != nil {
			fmt.Fprintf(w, "%s\n", last)
		}
		last = append(last[:0:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if last == nil {
		return nil, errors.New("empty output")
	}
	return last, nil
}
