package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/robotack/robotack/internal/core"
)

// analyticOracles is the oracle set the malware falls back to when a
// campaign passes none. Passing it explicitly changes no outcome, and
// lets the traced run count the analytic oracle's queries.
func analyticOracles() map[core.Vector]core.Oracle {
	out := make(map[core.Vector]core.Oracle)
	for _, v := range []core.Vector{core.VectorMoveOut, core.VectorMoveIn, core.VectorDisappear} {
		out[v] = core.NewAnalyticOracle(v)
	}
	return out
}

// oracleTimer counts and times every oracle query made through the
// oracles it wraps. Episodes never query the wrapped map directly: each
// engine worker's scratch clones it (core.OracleCloner), so every clone
// keeps its own single-goroutine counters and totals sums them once the
// batches that used them have finished.
type oracleTimer struct {
	rec *recorder

	mu     sync.Mutex
	clones []*timedOracle
}

// wrap returns src with every oracle timed.
func (t *oracleTimer) wrap(src map[core.Vector]core.Oracle) map[core.Vector]core.Oracle {
	out := make(map[core.Vector]core.Oracle, len(src))
	for v, o := range src {
		out[v] = t.newOracle(o)
	}
	return out
}

func (t *oracleTimer) newOracle(inner core.Oracle) *timedOracle {
	o := &timedOracle{inner: inner, t: t}
	t.mu.Lock()
	t.clones = append(t.clones, o)
	t.mu.Unlock()
	return o
}

// totals returns the queries made and the nanoseconds they took.
func (t *oracleTimer) totals() (queries, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.clones {
		queries += o.queries.Load()
		ns += o.ns.Load()
	}
	return queries, ns
}

// reset zeroes every clone's counters.
func (t *oracleTimer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range t.clones {
		o.queries.Store(0)
		o.ns.Store(0)
	}
}

// timedOracle is one timed oracle (or one worker's clone of it). Its
// counters are atomic because the served fleet's workers query while
// the run resets and reads them; nothing else contends for them.
type timedOracle struct {
	inner       core.Oracle
	t           *oracleTimer
	queries, ns atomic.Int64
}

var _ core.OracleCloner = (*timedOracle)(nil)

// PredictDelta implements core.Oracle.
func (o *timedOracle) PredictDelta(s core.State, k int) float64 {
	if !o.t.rec.active() {
		return o.inner.PredictDelta(s, k)
	}
	start := time.Now()
	v := o.inner.PredictDelta(s, k)
	o.ns.Add(int64(time.Since(start) - clockCost()))
	o.queries.Add(1)
	return v
}

// CloneOracle implements core.OracleCloner: the clone wraps a clone of
// the inner oracle when that one keeps per-call state, else shares it.
func (o *timedOracle) CloneOracle() core.Oracle {
	inner := o.inner
	if c, ok := inner.(core.OracleCloner); ok {
		inner = c.CloneOracle()
	}
	return o.t.newOracle(inner)
}
