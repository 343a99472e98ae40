package main

// metricSpec names one published metric and its unit.
type metricSpec struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. BENCHMARK.json lists the same names and units.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"tests_per_s", "1/s"},
	{"test_p50_ms", "ms"},
	{"test_p99_ms", "ms"},
	{"overhead_prep_pct", "%"},
	{"overhead_detect_pct", "%"},
	{"delays_injected", "count"},
	{"runs_to_expose_mean", "runs"},
	{"programs_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"request_p50_ms", "ms"},
	{"request_p99_ms", "ms"},
}

// perLayer are the traced run's metrics, grouped by layer.
var perLayer = []metricSpec{
	{"sim.baseline_run_us", "us"},
	{"sim.prep_run_us", "us"},
	{"sim.detect_run_us", "us"},
	{"sim.runs", "count"},
	{"trace.events", "count"},
	{"trace.record_ns_per_event", "ns"},
	{"trace.allocs_per_event", "count"},
	{"analyze.ns_per_event", "ns"},
	{"analyze.candidate_pairs", "count"},
	{"analyze.pairs_pruned", "count"},
	{"analyze.interference_edges", "count"},
	{"inject.access_ns", "ns"},
	{"inject.accesses", "count"},
	{"inject.delays_injected", "count"},
	{"inject.delays_skipped_interference", "count"},
	{"inject.decay_floor_hits", "count"},
	{"inject.exposures_per_1k_delays", "count"},
	{"session.runs", "count"},
	{"session.prepare_ms", "ms"},
	{"session.detect_ms", "ms"},
	{"session.analyze_ms", "ms"},
	{"genprog.generate_us", "us"},
	{"sched.jobs", "count"},
	{"sched.waves", "count"},
	{"server.commit_gap_ms_p50", "ms"},
	{"server.commit_gap_ms_p99", "ms"},
	{"server.journal_append_us", "us"},
	{"server.journal_bytes_per_program", "B"},
	{"memmodel.sc_programs_per_s", "1/s"},
	{"memmodel.tso_programs_per_s", "1/s"},
	{"live.plain_us_p50", "us"},
	{"live.plain_us_p99", "us"},
	{"live.inject_us_p50", "us"},
	{"live.inject_us_p99", "us"},
	{"live.record_ms", "ms"},
	{"live.requests_admitted", "count"},
	{"live.delays_per_admitted", "count"},
	{"live.truncated_delays", "count"},
	{"live.abandoned_events", "count"},
	{"live.budget_ns", "ns"},
	{"runtime.alloc_bytes_per_item", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"obs.traced_overhead_pct", "%"},
}
