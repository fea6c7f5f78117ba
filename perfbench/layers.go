package main

// endToEnd lists the metrics the untraced run reports, with their units.
// Every workload reports all of them; BENCHMARK.json declares the same
// names (pinned by TestMetricNamesMatchBenchmarkJSON).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// jobKinds are simd's seven job types, in the order the per-kind metrics
// are reported.
var jobKinds = []string{"roadmap", "surrogate", "dtm", "raid", "figure4", "fleet", "tournament"}

// perLayer lists the metrics the traced run reports, with their units.
// Each traced workload prints all of them; a layer the workload does not
// exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	out := []m{
		{"trace.next_ns", "ns"},
		{"raid.self_ns", "ns"},
		{"raid.fanout", "count"},
		{"disksim.serve_ns", "ns"},
		{"disksim.cache_hit_frac", "1"},
		{"sim.engine_ns", "ns"},
		{"core.sink_ns", "ns"},
		{"dtm.source_ns", "ns"},
	}
	for _, p := range dtmPolicies {
		out = append(out, m{"dtm." + p + ".ns_per_req", "ns"})
	}
	out = append(out,
		m{"dtm.control_actions", "count"},
		m{"thermal.advance_ns", "ns"},
		m{"thermal.advance_per_req", "count"},
		m{"thermal.cond_hit_frac", "1"},
		m{"client.ttfb_ms", "ms"},
		m{"client.body_ms", "ms"},
		m{"client.latency_p50_ms", "ms"},
		m{"client.latency_p90_ms", "ms"},
		m{"client.latency_p99_ms", "ms"},
		m{"client.latency_p99_samples", "count"},
		m{"client.lag_ms", "ms"},
		m{"server.http_p50_ms", "ms"},
	)
	for _, k := range jobKinds {
		out = append(out, m{"server." + k + ".p50_ms", "ms"}, m{"server." + k + ".run_ms", "ms"})
	}
	return append(out,
		m{"server.refused", "count"},
		m{"journal.appends_per_job", "count"},
		m{"journal.bytes_per_job", "B"},
		m{"journal.append_ms", "ms"},
		m{"journal.latency_p50_ms", "ms"},
		m{"journal.latency_p90_ms", "ms"},
		m{"surrogate.hit_frac", "1"},
		m{"surrogate.fallback_ms", "ms"},
		m{"bench.unattributed_frac", "1"},
		m{"bench.tracing_overhead_frac", "1"},
	)
}()

// perLayerMetrics renders a traced run's values as the full per-layer
// list, in declaration order, with 0 for layers the workload leaves idle.
func perLayerMetrics(v map[string]float64) []metric {
	out := make([]metric, len(perLayer))
	seen := 0
	for i, m := range perLayer {
		if _, ok := v[m.name]; ok {
			seen++
		}
		out[i] = metric{m.name, m.unit, v[m.name]}
	}
	if seen != len(v) {
		panic("perfbench: a traced value has no per-layer declaration")
	}
	return out
}
