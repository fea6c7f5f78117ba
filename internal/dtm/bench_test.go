package dtm

// Predictive-path benchmarks (results in BENCH_dtm.json): the slope
// predictor's per-sample cost and the full predictive controller streaming a
// seeded workload. allocs/op is the contract under test — the predictor ring
// never allocates after construction, and the controller's allocation count
// is its fixed setup (engine, transient, rings, closures), independent of
// how many requests stream through it. A per-request allocation would grow
// BenchmarkPredictiveStream's allocs/op with the workload length and trip
// the exact benchdiff gate.

import (
	"testing"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// BenchmarkPredictorObserve measures observe-and-predict on a full ring:
// the cost the streaming controller pays at every thermal sample. One op is
// 1,000 steps, so a few iterations time the predictor rather than the
// timer; ns/step is the per-sample cost. Zero allocs/op, exactly.
func BenchmarkPredictorObserve(b *testing.B) {
	const steps = 1000
	p := NewPredictor(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < steps; j++ {
			k := i*steps + j
			p.Observe(time.Duration(k)*100*time.Millisecond, units.Celsius(40+float64(k%100)*0.01))
			p.TimeToLimit(thermal.Envelope)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/step")
}

// BenchmarkPredictiveStream runs the full predictive controller over a
// 20000-request seeded workload per iteration, from a warm start that heats
// across the engage band so the predictive stage fires during the measured
// run. allocs/op is the controller's fixed setup cost;
// TestPredictiveSteadyStateZeroAllocs proves it does not scale with the
// request count, and this baseline pins the absolute number.
func BenchmarkPredictiveStream(b *testing.B) {
	template, th := buildDTMDisk(b, 24534)
	warm := th.SteadyState(thermal.WorstCase(24534))
	warm.Air = thermal.Envelope - 4
	reqs := dtmWorkload(b, template.Layout().TotalSectors(), 20000, 120)

	var res PredictiveResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The disk is stateful (head position, clock); rebuild it outside the
		// timed region so every measured iteration is the same seeded run and
		// allocs/op counts only the controller's own setup.
		b.StopTimer()
		disk, _ := buildDTMDisk(b, 24534)
		b.StartTimer()
		ctl := PredictiveController{Disk: disk, Thermal: th, Mode: VCMOnly, Initial: &warm}
		var err error
		res, err = ctl.RunStream(sim.NewEngine(), sim.FromSlice(reqs),
			sim.Discard[disksim.Completion]())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.MaxAirTemp), "max-air-C")
	b.ReportMetric(float64(res.EarlyThrottles), "early-throttles")
}
