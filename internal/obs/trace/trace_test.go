package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDeriveIDsDeterministic pins the ID contract: pure functions of
// their inputs, never zero, and decorrelated across streams — the
// whole cross-process design rests on a server and a worker deriving
// identical IDs independently.
func TestDeriveIDsDeterministic(t *testing.T) {
	a := DeriveTraceID("DS-2-Smart-R", 500)
	b := DeriveTraceID("DS-2-Smart-R", 500)
	if a != b {
		t.Fatalf("DeriveTraceID not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("DeriveTraceID returned zero")
	}
	if DeriveTraceID("DS-2-Smart-R", 501) == a {
		t.Error("seed change did not change the trace ID")
	}
	if DeriveTraceID("DS-3-Smart-R", 500) == a {
		t.Error("name change did not change the trace ID")
	}
	// A server and a worker derive each other's IDs, and reruns must
	// reproduce them, so the values are pinned.
	if a != 0xff8f05bf5c721140 {
		t.Errorf("DeriveTraceID(DS-2-Smart-R, 500) = %#x, want 0xff8f05bf5c721140", a)
	}
	if id := DeriveSpanID(a, 1, StreamLease); id != 0xa3220fdb19d677ce {
		t.Errorf("lease span ID = %#x, want 0xa3220fdb19d677ce", id)
	}
	if id := DeriveSpanID(a, 500, StreamEngineJob); id != 0x3e2b2ef72308cec4 {
		t.Errorf("engine-job span ID = %#x, want 0x3e2b2ef72308cec4", id)
	}

	lease := DeriveSpanID(a, 1, StreamLease)
	if lease == 0 {
		t.Fatal("DeriveSpanID returned zero")
	}
	if lease != DeriveSpanID(a, 1, StreamLease) {
		t.Error("DeriveSpanID not deterministic")
	}
	seen := map[uint64]uint64{}
	for _, stream := range []uint64{StreamRun, StreamQueueWait, StreamLease, StreamHeartbeat,
		StreamRequeue, StreamWorkerJob, StreamEngineJob} {
		id := DeriveSpanID(a, 1, stream)
		if prev, dup := seen[id]; dup {
			t.Errorf("streams %d and %d collide on span ID %x", prev, stream, id)
		}
		seen[id] = stream
	}
}

// TestTraceparentRoundTrip: the header FormatTraceparent writes has the
// W3C layout 00-<32 hex>-<16 hex>-01, and its fields read back as the
// trace ID (the low half of the 128-bit trace-id field, the high half
// zero) and the span ID.
func TestTraceparentRoundTrip(t *testing.T) {
	tid := DeriveTraceID("rt", 7)
	sid := DeriveSpanID(tid, 3, StreamLease)
	hdr := FormatTraceparent(tid, sid)
	f := strings.Split(hdr, "-")
	if len(hdr) != 55 || len(f) != 4 || f[0] != "00" || len(f[1]) != 32 || len(f[2]) != 16 || f[3] != "01" {
		t.Fatalf("header %q is not 00-<32 hex>-<16 hex>-01", hdr)
	}
	high, errH := strconv.ParseUint(f[1][:16], 16, 64)
	gotT, errT := strconv.ParseUint(f[1][16:], 16, 64)
	gotS, errS := strconv.ParseUint(f[2], 16, 64)
	if errH != nil || errT != nil || errS != nil || high != 0 || gotT != tid || gotS != sid {
		t.Fatalf("header %q reads back as (%x, %x, %x), want (0, %x, %x)", hdr, high, gotT, gotS, tid, sid)
	}
}

// TestSpanLifecycle drives a parent/child pair through a CollectSink
// and checks everything the analysis layer depends on: parent linkage,
// service stamping, the live span in the child's context, seed, stage
// and attr capture, duration.
func TestSpanLifecycle(t *testing.T) {
	sink := &CollectSink{}
	tr := New("test-svc", sink)
	tid := DeriveTraceID("life", 1)
	root := tr.StartSpan(SpanContext{Tracer: tr, TraceID: tid}, "run", DeriveSpanID(tid, 0, StreamRun))
	root.SetAttr("campaign", "life")

	sc, ok := FromContext(root.Context(t.Context()))
	if !ok {
		t.Fatal("FromContext lost the span context")
	}
	if SpanFromContext(root.Context(t.Context())) != root {
		t.Fatal("SpanFromContext lost the live span")
	}
	if SpanFromContext(NewContext(t.Context(), SpanContext{Tracer: tr, TraceID: sc.TraceID, SpanID: sc.SpanID})) != nil {
		t.Error("a context built from IDs alone has a live span")
	}
	child := tr.StartSpan(sc, "engine-job", DeriveSpanID(tid, 42, StreamEngineJob))
	child.SetSeed(42)
	child.StageAdd(0, 3*time.Millisecond)
	child.StageAdd(2, time.Millisecond)
	child.StageAdd(0, time.Millisecond)
	child.FrameDone(true)
	child.FrameDone(false)
	child.Finish()
	root.Finish()

	spans := sink.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Name != "engine-job" || r.Name != "run" {
		t.Fatalf("unexpected emit order: %q, %q", c.Name, r.Name)
	}
	if c.Parent != r.SpanID {
		t.Errorf("child parent = %s, want %s", c.Parent, r.SpanID)
	}
	if c.Service != "test-svc" || r.Service != "test-svc" {
		t.Errorf("service not stamped: %q, %q", c.Service, r.Service)
	}
	if want := []int64{int64(4 * time.Millisecond), 0, int64(time.Millisecond)}; len(c.Stages) != 3 ||
		c.Stages[0] != want[0] || c.Stages[1] != want[1] || c.Stages[2] != want[2] {
		t.Errorf("stages = %v, want %v", c.Stages, want)
	}
	if c.Frames != 2 || c.SampledFrames != 1 || !c.Episode() || r.Episode() {
		t.Errorf("frames = %d/%d, want 2/1, and only the child an episode", c.SampledFrames, c.Frames)
	}
	if c.Seed != 42 || r.Seed != 0 {
		t.Errorf("seeds = %d, %d, want 42 on the child only", c.Seed, r.Seed)
	}
	if r.Attr("campaign") != "life" {
		t.Errorf("root attr campaign = %q", r.Attr("campaign"))
	}
	if c.Dur < 0 || r.Dur < c.Dur {
		t.Errorf("durations inconsistent: child %d, root %d", c.Dur, r.Dur)
	}
}

// TestNilSafety: the untraced path is nil receivers everywhere; none
// of it may panic.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(SpanContext{}, "x", 1)
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	sp.SetSeed(1)
	sp.StageAdd(0, time.Millisecond)
	sp.FrameDone(true)
	sp.SetAttr("k", "v")
	ctx := sp.Context(t.Context())
	if _, ok := FromContext(ctx); ok || SpanFromContext(ctx) != nil {
		t.Error("nil span produced an active context")
	}
	sp.Finish()
	tr.Emit(&SpanData{})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// makeSpans builds a plausible cross-process trace for analysis tests:
// root → queue-wait + lease → worker-job → three engine jobs, two of
// them episodes (frames, seed, stages) and one not.
func makeSpans(tid uint64, base int64) []SpanData {
	ms := int64(time.Millisecond)
	id := func(key, stream uint64) ID { return ID(DeriveSpanID(tid, key, stream)) }
	spans := []SpanData{
		{TraceID: ID(tid), SpanID: id(0, StreamRun), Name: "run", Service: "serve",
			Start: base, Dur: 100 * ms,
			Attrs: []Attr{{Key: "campaign", Value: "DS-2-Smart-R"}}},
		{TraceID: ID(tid), SpanID: id(1, StreamQueueWait), Parent: id(0, StreamRun),
			Name: "queue-wait", Service: "serve", Start: base, Dur: 20 * ms},
		{TraceID: ID(tid), SpanID: id(1, StreamLease), Parent: id(0, StreamRun),
			Name: "lease", Service: "serve", Start: base + 20*ms, Dur: 80 * ms},
		{TraceID: ID(tid), SpanID: id(1, StreamWorkerJob), Parent: id(1, StreamLease),
			Name: "worker-job", Service: "w1", Start: base + 25*ms, Dur: 70 * ms},
		{TraceID: ID(tid), SpanID: id(7, StreamEngineJob), Parent: id(1, StreamWorkerJob),
			Name: "engine-job", Service: "w1", Start: base + 26*ms, Dur: 5 * ms, Seed: 7},
		{TraceID: ID(tid), SpanID: id(1001, StreamEngineJob), Parent: id(1, StreamWorkerJob),
			Name: "engine-job", Service: "w1", Start: base + 27*ms, Dur: 30 * ms,
			Seed: 1001, Frames: 32, SampledFrames: 2,
			Stages: []int64{10 * ms, 5 * ms}},
		{TraceID: ID(tid), SpanID: id(1002, StreamEngineJob), Parent: id(1, StreamWorkerJob),
			Name: "engine-job", Service: "w1", Start: base + 58*ms, Dur: 35 * ms,
			Seed: 1002, Frames: 32, SampledFrames: 2},
	}
	return spans
}

// TestAnalyze covers Collect, the critical path, the breakdown, the
// slowest ranking and the Chrome export over one synthetic trace.
func TestAnalyze(t *testing.T) {
	tid := DeriveTraceID("an", 11)
	spans := makeSpans(tid, int64(time.Hour))
	traces := Collect(spans)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Root == nil || tr.Root.Name != "run" {
		t.Fatal("root not resolved")
	}
	if got := tr.Name(); got != "DS-2-Smart-R" {
		t.Errorf("trace name = %q", got)
	}
	if svcs := tr.Services(); len(svcs) != 2 || svcs[0] != "serve" || svcs[1] != "w1" {
		t.Errorf("services = %v, want [serve w1]", svcs)
	}
	if Find(traces, tr.ID) != tr || Find(traces, tr.ID+1) != nil {
		t.Error("Find misbehaves")
	}

	path := CriticalPath(tr)
	if len(path) == 0 || path[0].Span.Name != "run" {
		t.Fatalf("critical path does not start at root: %+v", path)
	}
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = n.Span.Name
	}
	want := "run>lease>worker-job>engine-job"
	if got := strings.Join(names, ">"); got != want {
		t.Errorf("critical path = %s, want %s", got, want)
	}

	bd := Summarize(tr)
	if bd.QueueWait != 20*time.Millisecond {
		t.Errorf("queue wait = %v, want 20ms", bd.QueueWait)
	}
	if bd.Exec != 80*time.Millisecond {
		t.Errorf("exec = %v, want 80ms", bd.Exec)
	}
	if bd.LeaseLatency != 5*time.Millisecond {
		t.Errorf("lease latency = %v, want 5ms", bd.LeaseLatency)
	}
	if bd.Episodes != 2 || bd.EngineJobs != 3 || bd.EpisodeTime != 65*time.Millisecond {
		t.Errorf("counts: %d episodes (%v), %d jobs; want 2 (65ms), 3", bd.Episodes, bd.EpisodeTime, bd.EngineJobs)
	}
	// Stages scale from the 2 sampled frames to all 32.
	if want := []int64{160 * int64(time.Millisecond), 80 * int64(time.Millisecond)}; !reflect.DeepEqual(bd.Stages, want) {
		t.Errorf("stage estimate = %v, want %v", bd.Stages, want)
	}

	slow := Slowest(traces, 1)
	if len(slow) != 1 || slow[0].Seed != 1002 {
		t.Errorf("slowest = %+v, want seed 1002", slow)
	}

	var buf bytes.Buffer
	FormatList(&buf, traces)
	if !strings.Contains(buf.String(), "services=serve,w1") {
		t.Errorf("FormatList output missing services: %q", buf.String())
	}
	buf.Reset()
	FormatCriticalPath(&buf, tr, []string{"sensor", "malware"})
	out := buf.String()
	if !strings.Contains(out, "queue-wait") || !strings.Contains(out, "critical path:") ||
		!strings.Contains(out, "across 3 engine jobs") || !strings.Contains(out, "episodes       2 in sink") {
		t.Errorf("FormatCriticalPath output incomplete:\n%s", out)
	}
	buf.Reset()
	FormatTree(&buf, tr, []string{"sensor", "malware"})
	if out := buf.String(); strings.Count(out, "seed=") != 2 || strings.Count(out, "stages: ") != 1 {
		t.Errorf("FormatTree marks other than the two episodes, or the staged one's stages:\n%s", out)
	}
	buf.Reset()
	FormatSlowest(&buf, traces, 0, []string{"sensor", "malware"})
	if out := buf.String(); strings.Count(out, "episode seed=") != 2 || !strings.Contains(out, "sensor=160ms malware=80ms (est from 2/32 frames)") {
		t.Errorf("FormatSlowest output:\n%s", out)
	}
	buf.Reset()
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	chrome := buf.String()
	if !strings.Contains(chrome, `"traceEvents"`) || !strings.Contains(chrome, `"ph":"X"`) ||
		strings.Count(chrome, `"frames":32`) != 2 {
		t.Errorf("chrome export malformed or without the two episodes' frames:\n%s", chrome)
	}
}

// TestFileSinkRoundTrip: spans written through the ring come back
// identical via ReadDir, and a second sink in the same directory
// appends a fresh segment without clobbering the first.
func TestFileSinkRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tid := DeriveTraceID("fs", 5)
	in := makeSpans(tid, int64(time.Hour))
	for i := range in {
		sink.Emit(&in[i])
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	sink2, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	extra := SpanData{TraceID: ID(tid), SpanID: 99, Name: "late", Service: "s2", Start: 1, Dur: 2}
	sink2.Emit(&extra)
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in)+1 {
		t.Fatalf("decoded %d spans, want %d", len(got), len(in)+1)
	}
	if !reflect.DeepEqual(got[:len(in)], in) {
		t.Errorf("decoded spans differ:\n in: %+v\nout: %+v", in, got[:len(in)])
	}
	if got[len(got)-1].Name != "late" {
		t.Errorf("second process's span lost: %+v", got[len(got)-1])
	}
}

// TestFileSinkRingCap: tiny segments and a tiny cap force deletions;
// the directory stays bounded and the survivors still decode.
func TestFileSinkRingCap(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(dir, 4096, WithSegmentBytes(1024))
	if err != nil {
		t.Fatal(err)
	}
	sp := SpanData{TraceID: 1, SpanID: 2, Name: "filler-span-name", Service: "svc",
		Start: 1, Dur: 2,
		Attrs: []Attr{{Key: "pad", Value: strings.Repeat("x", 64)}}}
	for i := 0; i < 500; i++ {
		sp.SpanID = ID(i + 1)
		sink.Emit(&sp)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	// The cap bounds retained closed segments; the live segment may
	// overhang by one roll threshold.
	if total > 4096+1024+512 {
		t.Errorf("ring holds %d bytes, cap 4096 + one segment", total)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("ring retained nothing")
	}
	if last := got[len(got)-1].SpanID; last != 500 {
		t.Errorf("newest span = %d, want 500 (oldest must be deleted, not newest)", last)
	}
}

// TestFileSinkTornTail: a segment truncated mid-record decodes cleanly
// up to the tear.
func TestFileSinkTornTail(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sink.Emit(&SpanData{TraceID: 1, SpanID: ID(i + 1), Name: "s", Service: "svc",
			Start: int64(i), Dur: 1})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "trace-*.bin"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Errorf("decoded %d spans after tear, want 9 (all but the torn record)", len(got))
	}
}

// TestFileSinkDurableWithoutClose: a span is in its segment file once
// Emit returns, so a process killed before Close loses none of them:
// spans emitted into a sink that is never closed all read back.
func TestFileSinkDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewFileSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close() // after the read: the file descriptor only
	in := makeSpans(DeriveTraceID("killed", 9), int64(time.Hour))
	for i := range in {
		sink.Emit(&in[i])
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("read back %d of %d spans emitted into an unclosed sink", len(got), len(in))
	}
}

// TestFileSinkReportsWriteError: the first failed write, or a failed
// roll to the next segment, breaks the sink, and Close returns that
// error instead of nil.
func TestFileSinkReportsWriteError(t *testing.T) {
	sp := SpanData{TraceID: 1, SpanID: 2, Name: "engine-job", Service: "svc", Start: 1, Dur: 2}
	for _, c := range []struct {
		name     string
		segBytes int64
		breakFS  func(s *FileSink, dir string)
		want     error
	}{
		// The active segment's file fails the record's write.
		{"write", DefaultSegmentBytes, func(s *FileSink, _ string) { s.f.Close() }, os.ErrClosed},
		// The record lands in the unlinked segment; the roll cannot
		// open the next one.
		{"roll", 1, func(_ *FileSink, dir string) { os.RemoveAll(dir) }, fs.ErrNotExist},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "trace")
			sink, err := NewFileSink(dir, 0, WithSegmentBytes(c.segBytes))
			if err != nil {
				t.Fatal(err)
			}
			c.breakFS(sink, dir)
			sink.Emit(&sp)
			if !errors.Is(sink.err, c.want) {
				t.Fatalf("sink error after a failed %s = %v, want %v", c.name, sink.err, c.want)
			}
			sink.Emit(&sp) // dropped by the broken sink
			if err := sink.Close(); !errors.Is(err, c.want) {
				t.Errorf("Close() = %v, want %v", err, c.want)
			}
		})
	}
}

// TestDecodeRefusesV1Segment: a version 1 segment, whose records carry
// a flags byte, has the old magic, and DecodeAll refuses it rather than
// reading its records one byte out of step.
func TestDecodeRefusesV1Segment(t *testing.T) {
	// v1 put a flags byte after SampledFrames. With that field and the
	// stage and attribute counts all zero, one more zero byte makes a v2
	// record a v1 record.
	rec := appendSpan(nil, &SpanData{TraceID: 1, SpanID: 2, Name: "episode", Service: "svc", Frames: 3})
	rec = append(rec, 0)
	seg := binary.AppendUvarint([]byte("robotack-trace\x01"), uint64(len(rec)))
	seg = append(seg, rec...)
	spans, err := DecodeAll(bytes.NewReader(seg))
	if err == nil || !strings.Contains(err.Error(), "bad magic") || len(spans) != 0 {
		t.Fatalf("v1 segment decoded to %d spans, err %v; want a bad-magic error", len(spans), err)
	}
}

// TestCheckBounds: the decoder refuses exactly the records CheckBounds
// refuses, so a writer that checks first never writes a segment the
// reader rejects.
func TestCheckBounds(t *testing.T) {
	for _, c := range []struct {
		stages, attrs int
		ok            bool
	}{
		{MaxStages, maxRecordAttrs, true},
		{MaxStages + 1, 0, false},
		{0, maxRecordAttrs + 1, false},
	} {
		d := SpanData{TraceID: 1, SpanID: 2, Name: "n", Service: "s",
			Stages: make([]int64, c.stages), Attrs: make([]Attr, c.attrs)}
		seg := []byte(fileMagic)
		rec := appendSpan(nil, &d)
		seg = binary.AppendUvarint(seg, uint64(len(rec)))
		seg = append(seg, rec...)
		_, decErr := DecodeAll(bytes.NewReader(seg))
		chkErr := CheckBounds(uint64(c.stages), uint64(c.attrs))
		if (decErr == nil) != c.ok || (chkErr == nil) != c.ok {
			t.Errorf("%d stages, %d attrs: decode %v, CheckBounds %v; want ok=%v from both", c.stages, c.attrs, decErr, chkErr, c.ok)
		}
	}
}

// TestStageAddZeroAllocs is the hot-path contract for the per-frame
// annotation calls: StageAdd and FrameDone on a live span allocate
// nothing.
func TestStageAddZeroAllocs(t *testing.T) {
	tr := New("z", NopSink{})
	tid := DeriveTraceID("z", 1)
	sp := tr.StartSpan(SpanContext{Tracer: tr, TraceID: tid}, "engine-job", DeriveSpanID(tid, 7, StreamEngineJob))
	defer sp.Finish()
	allocs := testing.AllocsPerRun(100, func() {
		sp.StageAdd(0, time.Microsecond)
		sp.StageAdd(3, time.Microsecond)
		sp.FrameDone(true)
	})
	if allocs != 0 {
		t.Errorf("StageAdd/FrameDone allocate %.1f per frame, want 0", allocs)
	}
}

// FuzzTraceDecode: DecodeAll returns spans or an error, never crashes,
// on any segment bytes, and the spans it accepts re-encode to a segment
// that decodes to the same spans. The seed corpus in testdata/fuzz
// holds a real robotack-campaign segment; the inline seed is an empty
// segment, its magic alone.
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte(fileMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		seg := []byte(fileMagic)
		for i := range spans {
			rec := appendSpan(nil, &spans[i])
			seg = binary.AppendUvarint(seg, uint64(len(rec)))
			seg = append(seg, rec...)
		}
		again, err := DecodeAll(bytes.NewReader(seg))
		if err != nil {
			t.Fatalf("re-encoded segment: %v", err)
		}
		if !reflect.DeepEqual(again, spans) {
			t.Fatalf("re-encoded segment decodes to %+v, want %+v", again, spans)
		}
	})
}
