package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// The analysis layer behind cmd/robotack-trace: group a sink's spans
// into traces, render trees, walk the critical path, rank the slowest
// episodes, and export Chrome trace_event JSON. Pure functions over
// []SpanData so they are testable without a fleet. An episode is the
// engine-job span it annotated (SpanData.Episode).

// Trace is one trace's spans, start-ordered, with the root resolved.
type Trace struct {
	ID    ID
	Spans []SpanData
	// Root is the run-level span (parentless), nil when the sink only
	// caught a fragment of the trace.
	Root *SpanData
}

// Collect groups spans by trace ID. Traces come back ordered by their
// earliest span; spans within a trace by start time.
func Collect(spans []SpanData) []*Trace {
	byID := make(map[ID]*Trace)
	var out []*Trace
	for i := range spans {
		d := spans[i]
		t := byID[d.TraceID]
		if t == nil {
			t = &Trace{ID: d.TraceID}
			byID[d.TraceID] = t
			out = append(out, t)
		}
		t.Spans = append(t.Spans, d)
	}
	for _, t := range out {
		sort.SliceStable(t.Spans, func(i, j int) bool { return t.Spans[i].Start < t.Spans[j].Start })
		for i := range t.Spans {
			if t.Spans[i].Parent == 0 {
				t.Root = &t.Spans[i]
				break
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if len(out[i].Spans) == 0 || len(out[j].Spans) == 0 {
			return len(out[j].Spans) == 0
		}
		return out[i].Spans[0].Start < out[j].Spans[0].Start
	})
	return out
}

// Find returns the trace with the given ID, nil when absent.
func Find(traces []*Trace, id ID) *Trace {
	for _, t := range traces {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Services returns the sorted distinct service names in the trace —
// a cross-process trace lists the server and every worker it touched.
func (t *Trace) Services() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range t.Spans {
		if s := t.Spans[i].Service; s != "" && !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// Name returns the trace's run name (the root span's campaign attr),
// or "" for fragments.
func (t *Trace) Name() string {
	if t.Root == nil {
		return ""
	}
	return t.Root.Attr("campaign")
}

// Wall is the trace's wall-clock extent: earliest start to latest end.
func (t *Trace) Wall() time.Duration {
	if len(t.Spans) == 0 {
		return 0
	}
	start := t.Spans[0].Start
	var end int64
	for i := range t.Spans {
		if e := t.Spans[i].End(); e > end {
			end = e
		}
	}
	return time.Duration(end - start)
}

// children indexes a trace's spans by parent span ID.
func (t *Trace) children() map[ID][]*SpanData {
	m := make(map[ID][]*SpanData)
	for i := range t.Spans {
		d := &t.Spans[i]
		m[d.Parent] = append(m[d.Parent], d)
	}
	return m
}

// FormatList writes one grep-friendly line per trace:
//
//	trace=<16hex> name=<run> spans=<n> services=<a,b> wall=<dur>
func FormatList(w io.Writer, traces []*Trace) {
	for _, t := range traces {
		name := t.Name()
		if name == "" {
			name = "-"
		}
		fmt.Fprintf(w, "trace=%s name=%s spans=%d services=%s wall=%s\n",
			t.ID, name, len(t.Spans), strings.Join(t.Services(), ","), t.Wall().Round(time.Millisecond))
	}
}

// FormatTree renders the trace as an indented span tree. Spans whose
// parent never reached the sink (a fragment trace, a parent the ring
// cap dropped) are rendered as extra roots.
func FormatTree(w io.Writer, t *Trace, stageNames []string) {
	kids := t.children()
	have := make(map[ID]bool, len(t.Spans))
	for i := range t.Spans {
		have[t.Spans[i].SpanID] = true
	}
	var walk func(d *SpanData, depth int)
	walk = func(d *SpanData, depth int) {
		indent := strings.Repeat("  ", depth)
		fmt.Fprintf(w, "%s%s [%s] %s", indent, d.Name, d.Service, time.Duration(d.Dur).Round(time.Microsecond))
		for _, a := range d.Attrs {
			fmt.Fprintf(w, " %s=%s", a.Key, a.Value)
		}
		if d.Episode() {
			fmt.Fprintf(w, " seed=%d frames=%d", d.Seed, d.Frames)
		}
		fmt.Fprintln(w)
		if d.Episode() && len(d.Stages) > 0 {
			fmt.Fprintf(w, "%s  stages: %s\n", indent, formatStages(d, stageNames))
		}
		for _, c := range kids[d.SpanID] {
			walk(c, depth+1)
		}
	}
	for i := range t.Spans {
		d := &t.Spans[i]
		if d.Parent == 0 || !have[d.Parent] {
			walk(d, 0)
		}
	}
}

// stageEstimate is the full-episode estimate of stage slot i: the
// span's stage time, which accumulates over its sampled frames only,
// scaled by frames over sampled frames.
func (d *SpanData) stageEstimate(i int) time.Duration {
	scale := 1.0
	if d.SampledFrames > 0 && d.Frames > 0 {
		scale = float64(d.Frames) / float64(d.SampledFrames)
	}
	return time.Duration(float64(d.Stages[i]) * scale)
}

// stageName names stage slot i: names[i], or stage<i> past its end.
func stageName(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("stage%d", i)
}

// formatStages renders an episode's accumulated stage latencies,
// scaled from the sampled frames back to a full-episode estimate.
func formatStages(d *SpanData, names []string) string {
	var b strings.Builder
	for i, v := range d.Stages {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%s", stageName(names, i), d.stageEstimate(i).Round(time.Microsecond))
	}
	if d.SampledFrames > 0 && d.SampledFrames != d.Frames {
		fmt.Fprintf(&b, " (est from %d/%d frames)", d.SampledFrames, d.Frames)
	}
	return b.String()
}

// CriticalNode is one hop of a trace's critical path.
type CriticalNode struct {
	Span *SpanData
	// Self is the path time attributed to this span itself: the stretch
	// of its duration after its last-finishing child ended (its whole
	// duration for leaves).
	Self time.Duration
	// Depth is the hop's depth along the path (root = 0).
	Depth int
}

// CriticalPath walks from the root to the chain of last-finishing
// descendants — the spans that determined when the run finished. For a
// campaign this reads as queue wait vs lease/dispatch vs compute: the
// hop with the dominant Self is where the wall-clock went.
func CriticalPath(t *Trace) []CriticalNode {
	if t.Root == nil {
		return nil
	}
	kids := t.children()
	var path []CriticalNode
	cur, depth := t.Root, 0
	for cur != nil {
		var last *SpanData
		for _, c := range kids[cur.SpanID] {
			if last == nil || c.End() > last.End() {
				last = c
			}
		}
		self := time.Duration(cur.Dur)
		if last != nil {
			if tail := cur.End() - last.End(); tail >= 0 {
				self = time.Duration(tail)
			} else {
				self = 0
			}
		}
		path = append(path, CriticalNode{Span: cur, Self: self, Depth: depth})
		cur = last
		depth++
	}
	return path
}

// Breakdown aggregates where a campaign's time went, across every
// attempt and worker the trace saw.
type Breakdown struct {
	Wall         time.Duration // root span duration
	QueueWait    time.Duration // sum of queue-wait spans
	Exec         time.Duration // sum of dispatch/lease execution spans
	LeaseLatency time.Duration // lease grant → worker-job start, per remote attempt
	Compute      time.Duration // sum of engine-job spans (CPU-side wall)
	EngineJobs   int
	Episodes     int           // engine-job spans an episode annotated
	EpisodeTime  time.Duration // their summed duration
	Stages       []int64       // summed estimated stage nanoseconds
}

// Summarize computes the trace's Breakdown.
func Summarize(t *Trace) Breakdown {
	var b Breakdown
	if t.Root != nil {
		b.Wall = time.Duration(t.Root.Dur)
	}
	workerJobStart := make(map[ID]int64) // parent (lease span) -> worker-job start
	for i := range t.Spans {
		d := &t.Spans[i]
		if d.Name == "worker-job" {
			if cur, ok := workerJobStart[d.Parent]; !ok || d.Start < cur {
				workerJobStart[d.Parent] = d.Start
			}
		}
	}
	for i := range t.Spans {
		d := &t.Spans[i]
		switch d.Name {
		case "queue-wait":
			b.QueueWait += time.Duration(d.Dur)
		case "dispatch", "lease":
			b.Exec += time.Duration(d.Dur)
			if start, ok := workerJobStart[d.SpanID]; ok && start > d.Start {
				b.LeaseLatency += time.Duration(start - d.Start)
			}
		case "engine-job":
			b.Compute += time.Duration(d.Dur)
			b.EngineJobs++
		}
		if d.Episode() {
			b.Episodes++
			b.EpisodeTime += time.Duration(d.Dur)
			for si := range d.Stages {
				for len(b.Stages) <= si {
					b.Stages = append(b.Stages, 0)
				}
				b.Stages[si] += int64(d.stageEstimate(si))
			}
		}
	}
	return b
}

// FormatCriticalPath renders the critical path and the time breakdown
// of one trace.
func FormatCriticalPath(w io.Writer, t *Trace, stageNames []string) {
	if t.Root == nil {
		fmt.Fprintf(w, "trace=%s: no root span in sink (fragment)\n", t.ID)
		return
	}
	wall := time.Duration(t.Root.Dur)
	fmt.Fprintf(w, "trace=%s name=%s wall=%s\n", t.ID, t.Name(), wall.Round(time.Millisecond))
	fmt.Fprintln(w, "critical path:")
	for _, n := range CriticalPath(t) {
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(n.Self) / float64(wall)
		}
		fmt.Fprintf(w, "  %s%-12s [%s] span=%-10s self=%-10s %5.1f%%\n",
			strings.Repeat("  ", n.Depth), n.Span.Name, n.Span.Service,
			time.Duration(n.Span.Dur).Round(time.Microsecond), n.Self.Round(time.Microsecond), pct)
	}
	b := Summarize(t)
	fmt.Fprintln(w, "breakdown:")
	fmt.Fprintf(w, "  queue-wait     %s\n", b.QueueWait.Round(time.Microsecond))
	fmt.Fprintf(w, "  lease-latency  %s\n", b.LeaseLatency.Round(time.Microsecond))
	fmt.Fprintf(w, "  exec           %s\n", b.Exec.Round(time.Microsecond))
	if b.EngineJobs > 0 {
		// Local campaigns have no dispatch/lease span; the root's wall
		// is the execution window there.
		window := b.Exec
		if window == 0 {
			window = b.Wall
		}
		par := 0.0
		if window > 0 {
			par = float64(b.Compute) / float64(window)
		}
		fmt.Fprintf(w, "  compute        %s across %d engine jobs (parallelism %.1fx)\n",
			b.Compute.Round(time.Microsecond), b.EngineJobs, par)
	}
	if b.Episodes > 0 {
		fmt.Fprintf(w, "  episodes       %d in sink, %s total\n", b.Episodes, b.EpisodeTime.Round(time.Microsecond))
		var total int64
		for _, v := range b.Stages {
			total += v
		}
		if total > 0 {
			var parts []string
			for i, v := range b.Stages {
				if v == 0 {
					continue
				}
				parts = append(parts, fmt.Sprintf("%s %.0f%%", stageName(stageNames, i), 100*float64(v)/float64(total)))
			}
			fmt.Fprintf(w, "  stage mix      %s\n", strings.Join(parts, ", "))
		}
	}
}

// Slowest returns the n slowest episodes' spans across all traces,
// slowest first.
func Slowest(traces []*Trace, n int) []SpanData {
	var eps []SpanData
	for _, t := range traces {
		for i := range t.Spans {
			if t.Spans[i].Episode() {
				eps = append(eps, t.Spans[i])
			}
		}
	}
	sort.SliceStable(eps, func(i, j int) bool { return eps[i].Dur > eps[j].Dur })
	if n > 0 && len(eps) > n {
		eps = eps[:n]
	}
	return eps
}

// FormatSlowest renders the slowest episodes with their frame-stage
// breakdowns.
func FormatSlowest(w io.Writer, traces []*Trace, n int, stageNames []string) {
	for _, d := range Slowest(traces, n) {
		fmt.Fprintf(w, "episode seed=%d dur=%s frames=%d service=%s trace=%s\n",
			d.Seed, time.Duration(d.Dur).Round(time.Microsecond), d.Frames, d.Service, d.TraceID)
		if len(d.Stages) > 0 {
			fmt.Fprintf(w, "  stages: %s\n", formatStages(&d, stageNames))
		}
	}
}

// chromeEvent is one Chrome trace_event record ("X" complete events
// plus "M" process-name metadata), the JSON chrome://tracing and
// Perfetto load directly.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts,omitempty"`  // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome exports spans as Chrome trace_event JSON: one process
// per service, spans packed into lanes (tids) greedily so overlapping
// spans render side by side.
func WriteChrome(w io.Writer, spans []SpanData) error {
	services := make(map[string]int)
	var events []chromeEvent
	for _, d := range spans {
		if _, ok := services[d.Service]; !ok {
			pid := len(services) + 1
			services[d.Service] = pid
			events = append(events, chromeEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": d.Service},
			})
		}
	}
	// Greedy lane assignment per service: sort by start, place each
	// span in the first lane whose previous span already ended.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	laneEnds := make(map[string][]int64)
	for _, i := range order {
		d := &spans[i]
		pid := services[d.Service]
		lanes := laneEnds[d.Service]
		tid := -1
		for li, end := range lanes {
			if end <= d.Start {
				tid = li
				break
			}
		}
		if tid == -1 {
			tid = len(lanes)
			lanes = append(lanes, 0)
		}
		lanes[tid] = d.End()
		laneEnds[d.Service] = lanes
		args := map[string]any{"trace": d.TraceID.String()}
		if d.Episode() {
			args["seed"] = d.Seed
			args["frames"] = d.Frames
		}
		for _, a := range d.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name:  d.Name,
			Phase: "X",
			TS:    float64(d.Start) / 1e3,
			Dur:   float64(d.Dur) / 1e3,
			PID:   pid,
			TID:   tid + 1,
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
