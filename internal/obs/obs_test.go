package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestRecordingZeroAllocs is the hot-path contract: recording into
// counters, gauges and histograms — directly or through handles —
// allocates nothing.
func TestRecordingZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_test_total", "")
	g := r.Gauge("alloc_test_gauge", "")
	h := r.Histogram("alloc_test_seconds", "", ExpBuckets(1e-6, 2, 14))
	ch := c.Handle()
	hh := h.Handle()

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter", func() { c.Add(1) }},
		{"counter handle", func() { ch.Add(1) }},
		{"gauge set", func() { g.Set(42) }},
		{"gauge add", func() { g.Add(-1) }},
		{"histogram", func() { h.Observe(3.5e-5) }},
		{"histogram handle", func() { hh.Observe(1e-3) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs per op, want 0", tc.name, n)
		}
	}
}

// TestRegistryConcurrency hammers get-or-create registration and
// recording from many goroutines; run under -race this proves the
// registry and the sharded accumulators are data-race free, and the
// final totals prove no increments were lost.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 1000

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("race_total", "shared")
			h := r.Histogram("race_seconds", "shared", ExpBuckets(1e-6, 10, 6))
			ch := c.Handle()
			hh := h.Handle()
			for j := 0; j < perG; j++ {
				ch.Add(1)
				hh.Observe(float64(j) * 1e-6)
				r.Gauge("race_gauge", "shared").Set(float64(j))
			}
		}()
	}
	wg.Wait()

	got := map[string]float64{}
	for _, sm := range r.Gather() {
		got[sm.Name] = sm.Value
	}
	if got["race_total"] != goroutines*perG {
		t.Errorf("counter lost increments: got %v, want %d", got["race_total"], goroutines*perG)
	}
	if got["race_seconds_count"] != goroutines*perG {
		t.Errorf("histogram lost observations: got %v, want %d", got["race_seconds_count"], goroutines*perG)
	}
}

// TestRegisterTypeConflictPanics: one name, two metric kinds is a
// programming error the registry refuses.
func TestRegisterTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("conflicted", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter's name did not panic")
		}
	}()
	r.Gauge("conflicted", "")
}

// TestGetOrCreateReturnsSame: registration is idempotent per
// (name, labels) pair, and distinct labels are distinct series.
func TestGetOrCreateReturnsSame(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", Label{"stage", "detect"})
	b := r.Counter("dup_total", "ignored", Label{"stage", "detect"})
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	c := r.Counter("dup_total", "h", Label{"stage", "track"})
	if a == c {
		t.Error("distinct labels returned the same counter")
	}
}

// TestWritePrometheusGolden pins the exposition format: HELP/TYPE once
// per family, cumulative buckets, _sum/_count, label escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Requests served.", Label{"route", "/runs"}).Add(3)
	r.Counter("t_requests_total", "Requests served.", Label{"route", "/metrics"}).Add(1)
	r.Gauge("t_queue_depth", "Jobs waiting.").Set(2)
	h := r.Histogram("t_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP t_latency_seconds Request latency.
# TYPE t_latency_seconds histogram
t_latency_seconds_bucket{le="0.01"} 1
t_latency_seconds_bucket{le="0.1"} 3
t_latency_seconds_bucket{le="1"} 3
t_latency_seconds_bucket{le="+Inf"} 4
t_latency_seconds_sum 5.105
t_latency_seconds_count 4
# HELP t_queue_depth Jobs waiting.
# TYPE t_queue_depth gauge
t_queue_depth 2
# HELP t_requests_total Requests served.
# TYPE t_requests_total counter
t_requests_total{route="/runs"} 3
t_requests_total{route="/metrics"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGatherHistogramSeries: Gather expands histograms into cumulative
// buckets, _sum and _count, in registration order.
func TestGatherHistogramSeries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("g_seconds", "", []float64{1, 2}, Label{"stage", "plan"})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	got := map[string]float64{}
	for _, s := range r.Gather() {
		got[s.Name] = s.Value
	}
	want := map[string]float64{
		`g_seconds_bucket{stage="plan",le="1"}`:    1,
		`g_seconds_bucket{stage="plan",le="2"}`:    2,
		`g_seconds_bucket{stage="plan",le="+Inf"}`: 3,
		`g_seconds_sum{stage="plan"}`:              11,
		`g_seconds_count{stage="plan"}`:            3,
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

// TestExpBuckets pins the standard latency layout used by the frame
// stage histograms.
func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 2, 4)
	want := []float64{1e-6, 2e-6, 4e-6, 8e-6}
	if len(b) != len(want) {
		t.Fatalf("got %d bounds, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Errorf("bound %d = %v, want %v", i, b[i], want[i])
		}
	}
}

// TestExpBucketsEdges pins the degenerate shapes: a single bucket is
// legal (the bound list is just [start]), while a non-positive start,
// a non-growing factor or an empty layout panic at construction — a
// malformed latency layout must fail at registration, not mis-bucket
// silently forever.
func TestExpBucketsEdges(t *testing.T) {
	if b := ExpBuckets(0.5, 2, 1); len(b) != 1 || b[0] != 0.5 {
		t.Errorf("ExpBuckets(0.5, 2, 1) = %v, want [0.5]", b)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("factor=1", func() { ExpBuckets(1e-4, 1, 10) })
	mustPanic("factor<1", func() { ExpBuckets(1e-4, 0.5, 10) })
	mustPanic("start=0", func() { ExpBuckets(0, 2, 10) })
	mustPanic("start<0", func() { ExpBuckets(-1, 2, 10) })
	mustPanic("n=0", func() { ExpBuckets(1e-4, 2, 0) })
}

// TestPrometheusLabelEscaping: backslash, double-quote and newline in
// label values must come out escaped per the exposition format — an
// unescaped newline would split a series line and corrupt the whole
// scrape.
func TestPrometheusLabelEscaping(t *testing.T) {
	cases := []struct {
		name  string
		value string
		want  string
	}{
		{"newline", "a\nb", `t_esc_total{v="a\nb"} 1`},
		{"backslash", `a\b`, `t_esc_total{v="a\\b"} 1`},
		{"quote", `a"b`, `t_esc_total{v="a\"b"} 1`},
		{"mixed", "\\\"\n", `t_esc_total{v="\\\"\n"} 1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			r.Counter("t_esc_total", "Escaping probe.", Label{"v", tc.value}).Add(1)
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
			got := lines[len(lines)-1]
			if got != tc.want {
				t.Errorf("series line = %q, want %q", got, tc.want)
			}
		})
	}
}
