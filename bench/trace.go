package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the traced run's in-memory span buffer (about 25 MB);
// spans beyond it are counted, not kept.
const maxSpans = 300_000

// recorder keeps the traced run's spans in memory and writes them out
// when the run ends. Spans wrap the benchmark's own calls into each
// layer's exported functions; nothing inside the program is traced. A
// nil recorder records nothing, which is how untraced runs pay for no
// tracing at all.
type recorder struct {
	t0   time.Time
	next atomic.Uint64
	// off is set while the traced run measures an untraced stretch of
	// the same work (the trace.overhead_frac baseline); decorators check
	// it and pass straight through.
	off atomic.Bool

	mu      sync.Mutex
	spans   []spanData
	dropped int
}

// spanData is one finished span. Start and End are offsets from the
// run's start; Trace groups the spans of one operation.
type spanData struct {
	Name              string
	Trace, ID, Parent uint64
	Start, End        time.Duration
	Tid               int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// active reports whether spans and counters should be recorded now.
func (r *recorder) active() bool { return r != nil && !r.off.Load() }

// span is an open span; end records it.
type span struct {
	r                 *recorder
	name              string
	trace, id, parent uint64
	tid               int
	start             time.Time
}

// root opens a span that starts a new trace: one per operation.
func (r *recorder) root(name string, tid int) span {
	if !r.active() {
		return span{}
	}
	id := r.next.Add(1)
	return span{r: r, name: name, trace: id, id: id, tid: tid, start: time.Now()}
}

// rootAt records a finished span that starts its own trace.
func (r *recorder) rootAt(name string, tid int, start, end time.Time) {
	if !r.active() {
		return
	}
	id := r.next.Add(1)
	r.add(spanData{Name: name, Trace: id, ID: id, Start: start.Sub(r.t0), End: end.Sub(r.t0), Tid: tid})
}

// child opens a span under s, on the given thread lane.
func (s span) child(name string, tid int) span {
	if s.r == nil {
		return span{}
	}
	return span{r: s.r, name: name, trace: s.trace, id: s.r.next.Add(1), parent: s.id, tid: tid, start: time.Now()}
}

// end closes the span now.
func (s span) end() { s.endAt(time.Now()) }

// endAt closes the span at t.
func (s span) endAt(t time.Time) {
	if s.r == nil {
		return
	}
	s.r.add(spanData{Name: s.name, Trace: s.trace, ID: s.id, Parent: s.parent,
		Start: s.start.Sub(s.r.t0), End: t.Sub(s.r.t0), Tid: s.tid})
}

// childAt records a finished child of s measured elsewhere (an engine
// job, a store call) from its start and end times.
func (s span) childAt(name string, tid int, start, end time.Time) {
	if s.r == nil {
		return
	}
	s.r.add(spanData{Name: name, Trace: s.trace, ID: s.r.next.Add(1), Parent: s.id,
		Start: start.Sub(s.r.t0), End: end.Sub(s.r.t0), Tid: tid})
}

func (r *recorder) add(d spanData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, d)
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() ([]spanData, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanData(nil), r.spans...), r.dropped
}

// layerTime is one span name's share of the run: how often it ran, its
// total duration and its self time (duration minus the time its
// children cover).
type layerTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the union of its children's intervals, clipped to the
// span itself.
func selfTimes(spans []spanData) map[string]*layerTime {
	children := make(map[uint64][]spanData)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent spanData, kids []spanData) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeChromeTrace writes spans as Chrome trace_event JSON ("X" complete
// events in microseconds), which Perfetto and chrome://tracing open.
func writeChromeTrace(path string, spans []spanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		name, _ := json.Marshal(s.Name)
		fmt.Fprintf(w, `{"name":%s,"cat":"bench","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"trace":"%x","id":"%x","parent":"%x"}}`,
			name, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.Tid, s.Trace, s.ID, s.Parent)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
