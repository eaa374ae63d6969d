package main

// metricDef is one metric the benchmark prints. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run. README.md defines each one per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_ms_p50", "ms", "lower", 0.25},
	{"verdict_ms_tail", "ms", "lower", 0.25},
	{"verdicts_per_s", "1/s", "higher", 0.25},
	{"explore_s_p50", "s", "lower", 0.25},
	{"explore_s_tail", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the single-module metrics printed by every traced run.
// Each is a timed public call made by the benchmark itself or a count
// from a public return value; README.md records which end-to-end metric
// each should move, on which workload, and where it should not.
var perLayer = []metricDef{
	{Name: "config.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "config.validate_ms", Unit: "ms", Better: "lower"},
	{Name: "config.fingerprint_ms", Unit: "ms", Better: "lower"},
	{Name: "xta.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "model.build_ms", Unit: "ms", Better: "lower"},
	{Name: "model.build_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "nsa.reindex_ms", Unit: "ms", Better: "lower"},
	{Name: "nsa.run_ms", Unit: "ms", Better: "lower"},
	{Name: "nsa.run_alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "nsa.ns_per_action", Unit: "ns", Better: "lower"},
	{Name: "nsa.actions", Unit: "count", Better: "lower"},
	{Name: "nsa.delays", Unit: "count", Better: "lower"},
	{Name: "nsa.guard_evals", Unit: "count", Better: "lower"},
	{Name: "nsa.guard_opaque_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.analyze_ms", Unit: "ms", Better: "lower"},
	{Name: "mc.check_ms", Unit: "ms", Better: "lower"},
	{Name: "mc.us_per_state", Unit: "us", Better: "lower"},
	{Name: "mc.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "mc.states", Unit: "count", Better: "lower"},
	{Name: "mc.transitions", Unit: "count", Better: "lower"},
	{Name: "jobs.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.run_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.computed_frac", Unit: "ratio", Better: "lower"},
	{Name: "jobs.memory_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "jobs.disk_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "jobs.computed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.memory_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.disk_hit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "store.puts", Unit: "count", Better: "lower"},
	{Name: "store.bytes_written", Unit: "bytes", Better: "lower"},
	{Name: "store.ms", Unit: "ms", Better: "lower"},
	{Name: "saserve.http_ms", Unit: "ms", Better: "lower"},
	{Name: "synth.run_ms", Unit: "ms", Better: "lower"},
	{Name: "synth.points", Unit: "count", Better: "lower"},
	{Name: "campaign.run_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.points", Unit: "count", Better: "lower"},
	{Name: "compose.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "compose.run_ms", Unit: "ms", Better: "lower"},
	{Name: "compose.modules_analyzed", Unit: "count", Better: "lower"},
	{Name: "compose.actions", Unit: "count", Better: "lower"},
	{Name: "unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "tracing_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower"},
}

// unitOf returns the unit of a defined metric and whether it exists.
func unitOf(name string) (string, bool) {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d.Unit, true
			}
		}
	}
	return "", false
}
