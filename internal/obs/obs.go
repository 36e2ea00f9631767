// Package obs is the repo-wide observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) whose
// hot-path recording is allocation-free and lock-free, Prometheus text
// exposition (prom.go), an FTDC-style compact binary time-series
// capture (ftdc.go), and the telemetry flag set every binary shares
// (flags.go).
//
// The layer is write-only for the rest of the program: outside this
// package no code reads a metric back (Counter.Value, Gauge.Value,
// Registry.Gather, Registry.WritePrometheus), only package main serves
// Handler, and this package imports nothing of the module but
// internal/obs/trace. A recorded value can reach an HTTP scrape or an
// FTDC file, never a seed, an RNG draw or a result record;
// TestNoTestOnlyCode holds all three rules.
//
// Hot-path contract: Counter.Add, Gauge.Set/Add and Histogram.Observe
// perform only atomic operations on preallocated memory — zero heap
// allocations (enforced by TestRecordingZeroAllocs). Contended call
// sites take a Handle, which pins the caller to one of the metric's
// cache-line-padded shards so concurrent workers do not fight over one
// cache line; readers sum across shards at scrape time.
package obs

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key="value" pair attached to a series at
// registration. Labels distinguish series within a family (e.g. the
// frame-stage histogram's stage="detect" vs stage="track").
type Label struct{ Key, Value string }

// shardCount is the number of accumulation shards per metric: the next
// power of two covering the CPU count, clamped to [8, 64]. Handles
// distribute round-robin over the shards, so a metric costs
// shardCount padded slots however many goroutines record into it.
var shardCount = func() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n *= 2
	}
	return n
}()

// nextShard hands out shard indices round-robin across all Handle
// acquisitions in the process.
var nextShard atomic.Uint64

func shardIndex() int { return int(nextShard.Add(1) % uint64(shardCount)) }

// slot is one cache-line-padded accumulator.
type slot struct {
	v atomic.Uint64
	_ [56]byte
}

// addFloat accumulates v into the float64 bit pattern held by a.
func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// desc is a series' identity: family name, help, and rendered labels.
type desc struct {
	name   string
	help   string
	labels string // rendered `k="v",k2="v2"` or ""
}

func (d desc) key() string { return d.name + "\x00" + d.labels }

// series returns the full series name for exposition and capture.
func (d desc) series() string {
	if d.labels == "" {
		return d.name
	}
	return d.name + "{" + d.labels + "}"
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing count.
type Counter struct {
	d     desc
	slots []slot
}

// Add increments the counter. Allocation-free; uncontended call sites
// may use it directly, hot concurrent loops should go through Handle.
func (c *Counter) Add(n uint64) { c.slots[0].v.Add(n) }

// Handle pins a caller to one shard of the counter, so per-worker
// recording does not contend on a single cache line. Handles are
// values — store them in worker state, never share one across
// goroutines' hot loops (sharing is still safe, just contended).
func (c *Counter) Handle() CounterHandle {
	return CounterHandle{s: &c.slots[shardIndex()]}
}

// Value returns the counter's current total.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.slots {
		t += c.slots[i].v.Load()
	}
	return t
}

// CounterHandle is a shard-pinned recording handle. The zero value is
// a no-op.
type CounterHandle struct{ s *slot }

// Add increments the handle's shard. Allocation-free.
func (h CounterHandle) Add(n uint64) {
	if h.s != nil {
		h.s.v.Add(n)
	}
}

// Gauge is a value that goes up and down (queue depth, best fitness).
type Gauge struct {
	d    desc
	bits atomic.Uint64
}

// Set stores v. Allocation-free.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates v (negative to decrease). Allocation-free.
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Bounds are the
// inclusive upper edges of each bucket; an implicit +Inf bucket
// catches the rest. Observation sums are kept per shard so the
// Prometheus _sum/_count series come out exact.
type Histogram struct {
	d      desc
	bounds []float64
	stride int    // bucket slots per shard, padded to a cache line
	counts []slot // shardCount * stride
	sums   []slot // float64 bits per shard
}

// Observe records v into shard 0. Allocation-free; hot concurrent
// loops should use a Handle instead.
func (h *Histogram) Observe(v float64) { h.observe(0, v) }

func (h *Histogram) observe(shard int, v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[shard*h.stride+i].v.Add(1)
	addFloat(&h.sums[shard].v, v)
}

// Handle pins a caller to one shard of the histogram.
func (h *Histogram) Handle() HistogramHandle {
	return HistogramHandle{h: h, shard: shardIndex()}
}

// HistogramHandle is a shard-pinned recording handle. The zero value
// is a no-op.
type HistogramHandle struct {
	h     *Histogram
	shard int
}

// Observe records v into the handle's shard. Allocation-free.
func (h HistogramHandle) Observe(v float64) {
	if h.h != nil {
		h.h.observe(h.shard, v)
	}
}

// snapshot returns the per-bucket totals (len(bounds)+1, non-
// cumulative), the observation sum and the observation count.
func (h *Histogram) snapshot() (buckets []uint64, sum float64, count uint64) {
	buckets = make([]uint64, len(h.bounds)+1)
	for s := 0; s < shardCount; s++ {
		for i := range buckets {
			buckets[i] += h.counts[s*h.stride+i].v.Load()
		}
		sum += math.Float64frombits(h.sums[s].v.Load())
	}
	for _, b := range buckets {
		count += b
	}
	return buckets, sum, count
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor: the standard latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metric is the registry's view of any metric kind.
type metric interface {
	desc() desc
	typ() string
}

func (c *Counter) desc() desc    { return c.d }
func (c *Counter) typ() string   { return "counter" }
func (g *Gauge) desc() desc      { return g.d }
func (g *Gauge) typ() string     { return "gauge" }
func (h *Histogram) desc() desc  { return h.d }
func (h *Histogram) typ() string { return "histogram" }

// Registry holds named metrics. Registration is get-or-create and
// idempotent: asking for an existing (name, labels) pair returns the
// same metric, so packages declare their instruments as package vars
// without coordinating. Registering the same name with a different
// metric type panics — that is a programming error, not a runtime
// condition.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]metric
	order []metric
}

// Default is the process-wide registry all package-level constructors
// use; /metrics endpoints and FTDC captures serve it.
var Default = NewRegistry()

// NewRegistry creates an empty registry (tests; production code uses
// Default).
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]metric)}
}

func (r *Registry) register(d desc, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[d.key()]; ok {
		return m
	}
	m := mk()
	for _, prev := range r.order {
		if prev.desc().name == d.name && prev.typ() != m.typ() {
			panic(fmt.Sprintf("obs: %s registered as both %s and %s", d.name, prev.typ(), m.typ()))
		}
	}
	r.byKey[d.key()] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	d := desc{name: name, help: help, labels: renderLabels(labels)}
	return r.register(d, func() metric {
		return &Counter{d: d, slots: make([]slot, shardCount)}
	}).(*Counter)
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	d := desc{name: name, help: help, labels: renderLabels(labels)}
	return r.register(d, func() metric { return &Gauge{d: d} }).(*Gauge)
}

// Histogram registers (or returns the existing) histogram series with
// the given bucket upper bounds (strictly increasing; +Inf implicit).
// Re-registration ignores the buckets argument and returns the
// original.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not strictly increasing", name))
		}
	}
	d := desc{name: name, help: help, labels: renderLabels(labels)}
	return r.register(d, func() metric {
		n := len(bounds) + 1
		stride := (n + 7) &^ 7 // pad shard blocks to cache-line multiples
		return &Histogram{
			d:      d,
			bounds: append([]float64(nil), bounds...),
			stride: stride,
			counts: make([]slot, shardCount*stride),
			sums:   make([]slot, shardCount),
		}
	}).(*Histogram)
}

// NewCounter, NewGauge and NewHistogram register on Default.
func NewCounter(name, help string, labels ...Label) *Counter {
	return Default.Counter(name, help, labels...)
}
func NewGauge(name, help string, labels ...Label) *Gauge {
	return Default.Gauge(name, help, labels...)
}
func NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return Default.Histogram(name, help, bounds, labels...)
}

// Sample is one series' value at gather time.
type Sample struct {
	Name  string
	Value float64
}

// Gather snapshots every registered series in registration order:
// counters and gauges as themselves, histograms expanded into their
// cumulative buckets plus _sum and _count. The order is stable across
// gathers (new registrations append), which is what the FTDC capture's
// schema chunks rely on.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()

	var out []Sample
	for _, m := range metrics {
		d := m.desc()
		switch v := m.(type) {
		case *Counter:
			out = append(out, Sample{Name: d.series(), Value: float64(v.Value())})
		case *Gauge:
			out = append(out, Sample{Name: d.series(), Value: v.Value()})
		case *Histogram:
			buckets, sum, count := v.snapshot()
			cum := uint64(0)
			for i, b := range buckets {
				cum += b
				out = append(out, Sample{Name: bucketSeries(d, v.bounds, i), Value: float64(cum)})
			}
			out = append(out, Sample{Name: d.name + "_sum" + wrap(d.labels), Value: sum})
			out = append(out, Sample{Name: d.name + "_count" + wrap(d.labels), Value: float64(count)})
		}
	}
	return out
}

func wrap(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// bucketSeries renders the i-th cumulative bucket's series name.
func bucketSeries(d desc, bounds []float64, i int) string {
	le := "+Inf"
	if i < len(bounds) {
		le = formatFloat(bounds[i])
	}
	labels := d.labels
	if labels != "" {
		labels += ","
	}
	return d.name + `_bucket{` + labels + `le="` + le + `"}`
}

// sortedForExposition returns the metrics grouped by family name (the
// Prometheus text format requires one contiguous block per family),
// preserving registration order within a family.
func (r *Registry) sortedForExposition() []metric {
	r.mu.Lock()
	metrics := append([]metric(nil), r.order...)
	r.mu.Unlock()
	sort.SliceStable(metrics, func(i, j int) bool {
		return metrics[i].desc().name < metrics[j].desc().name
	})
	return metrics
}
