package thermal

import "repro/internal/obs"

// ExportCache publishes the model's memo-cache counters to reg as gauges,
// labelled with the given alternating key/value pairs. The cond gauges count
// conductance lookups, one per transient step-kernel build and one per
// uncached steady solve (see CacheStats), not transient steps. Gauges rather
// than counters because CacheStats is an absolute snapshot: re-exporting
// after more work overwrites with the new totals instead of double-counting.
// The underlying counters are atomic.Int64s (see modelCache), so exporting
// is safe while sweep workers are still hitting the cache — though for a
// deterministic snapshot, export after the parallel phase has joined.
//
// A nil registry is a no-op, matching the nil-handle convention in obs.
func (m *Model) ExportCache(reg *obs.Registry, labels ...string) {
	if reg == nil {
		return
	}
	s := m.CacheStats()
	reg.Gauge("thermal_cache_steady_hits", labels...).SetInt(s.SteadyHits)
	reg.Gauge("thermal_cache_steady_misses", labels...).SetInt(s.SteadyMisses)
	reg.Gauge("thermal_cache_cond_hits", labels...).SetInt(s.CondHits)
	reg.Gauge("thermal_cache_cond_misses", labels...).SetInt(s.CondMisses)
}
