// Observability determinism: -metrics-out and -trace-out must be
// byte-identical at any worker count. The metric design (commutative
// counters, single-writer per-cell gauges, sorted snapshots) and the
// tracer design (per-step sub-tracers merged in input order) each carry
// half of that contract; these tests pin the composed result.
package integration

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// renderObs runs one workload's streaming RPM sweep with both sinks
// attached and renders the deterministic snapshot and span stream.
func renderObs(t *testing.T, workers int) (metrics, spans string) {
	t.Helper()
	w := trace.Workloads[3].WithRequests(1500) // TPC-C: smallest array
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	_, err := core.RunFigure4StepsStreamCtx(context.Background(), w, core.Figure4Steps(w.BaselineRPM), workers,
		core.Observe{Registry: reg, Tracer: tr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var m, s strings.Builder
	if err := obs.WriteNDJSON(&m, obs.Stable(reg.Snapshot())); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSpans(&s, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	return m.String(), s.String()
}

// TestObsSnapshotBytesIdenticalAcrossWorkers is the acceptance contract:
// the NDJSON snapshot and the span stream from a -workers 1 run and a
// -workers 4 run must match byte for byte.
func TestObsSnapshotBytesIdenticalAcrossWorkers(t *testing.T) {
	m1, s1 := renderObs(t, 1)
	m4, s4 := renderObs(t, 4)
	if m1 != m4 {
		t.Errorf("metric snapshots differ between worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", m1, m4)
	}
	if s1 != s4 {
		t.Errorf("span streams differ between worker counts (%d vs %d bytes)", len(s1), len(s4))
	}
	if m1 == "" || s1 == "" {
		t.Fatal("observed run produced no output")
	}
}

// TestObsMetricsMatchResults cross-checks the registry against the sweep's
// own summary: the per-step raid request counters must equal the request
// count, and the response histogram's n/sum must agree with the step mean.
func TestObsMetricsMatchResults(t *testing.T) {
	w := trace.Workloads[3].WithRequests(1500)
	reg := obs.NewRegistry()
	res, err := core.RunFigure4StepsStreamCtx(context.Background(), w, core.Figure4Steps(w.BaselineRPM), 2,
		core.Observe{Registry: reg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]obs.Metric)
	for _, m := range reg.Snapshot() {
		byID[m.ID()] = m
	}
	for _, step := range res.Steps {
		rpm := strings.TrimSuffix(strings.ReplaceAll(step.RPM.String(), ",", ""), " RPM")
		var reqID string
		for id, m := range byID {
			if m.Name == "raid_requests_total" && m.Labels["rpm"] != "" &&
				strings.Contains(id, `workload="TPC-C"`) && labelRPM(m) == int(step.RPM) {
				reqID = id
			}
		}
		if reqID == "" {
			t.Fatalf("no raid_requests_total series for rpm %v (tried %q); have %d series", step.RPM, rpm, len(byID))
		}
		if got := byID[reqID].Count; got != 1500 {
			t.Errorf("rpm %v: raid_requests_total = %d, want 1500", step.RPM, got)
		}
		// Histogram mean must reproduce the step mean exactly: the same
		// additions flowed through both accumulators.
		for _, m := range byID {
			if m.Name == "raid_response_ms" && labelRPM(m) == int(step.RPM) {
				if m.N != 1500 {
					t.Errorf("rpm %v: histogram n = %d, want 1500", step.RPM, m.N)
				}
				if mean := m.Sum / float64(m.N); mean != step.MeanMillis {
					t.Errorf("rpm %v: histogram mean %v != step mean %v", step.RPM, mean, step.MeanMillis)
				}
			}
		}
	}
}

// labelRPM parses a metric's rpm label (0 when absent or malformed).
func labelRPM(m obs.Metric) int {
	v := m.Labels["rpm"]
	n := 0
	for _, r := range v {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
}
