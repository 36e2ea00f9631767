package segstore

// Store instrumentation: append/roll/compaction lifecycle counters,
// the index-hit vs raw-scan split that shows whether queries are
// actually riding the metadata, and live size gauges. Observational
// only: nothing outside internal/obs reads a metric back, so on-disk
// bytes cannot depend on it.

import (
	"github.com/robotack/robotack/internal/obs"
)

var (
	mAppends = obs.NewCounter("robotack_segstore_appends_total",
		"Episode records appended across all segmented stores.")
	mRolls = obs.NewCounter("robotack_segstore_rolls_total",
		"Active segments sealed after reaching the size threshold.")
	mCompactions = obs.NewCounter("robotack_segstore_compactions_total",
		"Shard generation rewrites completed by Compact.")
	mIndexHits = obs.NewCounter("robotack_segstore_index_hits_total",
		"Queries that concatenated segments on the sorted fast path (no last-wins fold).")
	mRawScans = obs.NewCounter("robotack_segstore_raw_scans_total",
		"Queries that had to re-parse segment records (fast path unavailable).")
	mOpenScanned = obs.NewCounter("robotack_segstore_open_scanned_bytes_total",
		"Raw segment bytes parsed during store open (un-indexed tails only).")
	gSegments = obs.NewGauge("robotack_segstore_segments",
		"Segment files currently live across all open segmented stores.")
	gBytes = obs.NewGauge("robotack_segstore_bytes",
		"Record bytes currently stored across all open segmented stores.")
)

func countN(c *obs.Counter, n int64) {
	if n > 0 {
		c.Add(uint64(n))
	}
}

func gaugeAdd(g *obs.Gauge, d float64) {
	if d != 0 {
		g.Add(d)
	}
}
