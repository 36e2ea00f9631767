package main

// metricDef names one reported metric and its unit. The two catalogues
// below are exactly the metric lists BENCHMARK.json declares
// (TestCatalogMatchesBenchmarkJSON): every untraced run prints every
// end-to-end metric, every traced run every per-layer metric, on every
// workload. A per-layer metric whose layer a workload never enters reads
// 0 there.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. An operation ("op") is the workload's unit of work: one
// Table II round for table2 and table2-nn, one three-oracle training for
// oracle-train, one served run from POST /runs to its terminal event for
// serve-fleet.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"episodes_per_s", "ep/s"},
	{"op_ms_p50", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's layer metrics. README.md maps each to
// the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// Frame layers, from the frame replayer.
	{"sensor.capture_ns_per_frame", "ns"},
	{"sensor.lidar_ns_per_frame", "ns"},
	{"detect.ns_per_frame", "ns"},
	{"track.ns_per_frame", "ns"},
	{"fusion.ns_per_frame", "ns"},
	{"planner.ns_per_frame", "ns"},
	{"sim.step_ns_per_frame", "ns"},
	{"core.malware_ns_per_frame", "ns"},
	// Oracle queries, from the timing decorator.
	{"core.oracle_queries_per_episode", "count"},
	{"core.oracle_ns_per_query", "ns"},
	{"core.oracle_share", "ratio"},
	// Attack outcomes against attempts.
	{"core.launch_ratio", "ratio"},
	{"core.success_ratio", "ratio"},
	// Episodes and the engine.
	{"experiment.episode_ms_p50", "ms"},
	{"experiment.episode_ms_p99", "ms"},
	{"experiment.frames_per_episode", "count"},
	{"engine.busy_frac", "ratio"},
	{"engine.tail_idle_ms_per_campaign", "ms"},
	{"results.fold_ns_per_episode", "ns"},
	// Oracle training, per three-oracle training.
	{"experiment.datagen_s", "s"},
	{"nn.train_s", "s"},
	{"nn.train_share", "ratio"},
	{"nn.samples", "count"},
	// Results store behind the server.
	{"segstore.appends_per_run", "count"},
	{"segstore.append_ms_p50", "ms"},
	{"segstore.put_campaign_ms_p50", "ms"},
	{"segstore.aggregate_ms_p50", "ms"},
	// HTTP routes of the campaign server.
	{"campaignd.runs_post.ms_p50", "ms"},
	{"campaignd.runs_post.per_run", "count"},
	{"campaignd.lease.ms_p50", "ms"},
	{"campaignd.lease.per_run", "count"},
	{"campaignd.heartbeat.ms_p50", "ms"},
	{"campaignd.heartbeat.per_run", "count"},
	{"campaignd.episodes_post.ms_p50", "ms"},
	{"campaignd.episodes_post.per_run", "count"},
	{"campaignd.complete.ms_p50", "ms"},
	{"campaignd.complete.per_run", "count"},
	{"campaignd.campaign_summary.ms_p50", "ms"},
	{"campaignd.campaign_summary.per_run", "count"},
	// Run queue, seen from the clients' event streams and the workers.
	{"runq.queue_wait_ms_p50", "ms"},
	{"runq.queue_wait_ms_p90", "ms"},
	{"runq.exec_ms_p50", "ms"},
	{"runq.lease_empty_ratio", "ratio"},
	{"runq.post_batches_per_run", "count"},
	// Process counters over the untraced operations of the traced run.
	{"proc.allocs_per_episode", "count"},
	{"proc.bytes_per_episode", "B"},
	{"proc.gc_cycles_per_1k_episodes", "count"},
	{"proc.gc_pause_us_per_episode", "us"},
	// Cost and coverage of the tracing itself.
	{"trace.overhead_frac", "ratio"},
	{"closure.frac", "ratio"},
}
