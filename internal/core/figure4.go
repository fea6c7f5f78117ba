package core

import (
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/raid"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// Figure4Steps returns the paper's RPM sweep for a workload: the baseline
// plus three 5,000 RPM increments (TPC-H thus runs 7200/12200/17200/22200).
func Figure4Steps(base units.RPM) []units.RPM {
	return []units.RPM{base, base + 5000, base + 10000, base + 15000}
}

// RPMStep is one workload/RPM cell of Figure 4.
type RPMStep struct {
	RPM units.RPM

	// MeanMillis is the mean response time.
	MeanMillis float64

	// CDF is the cumulative response-time distribution over
	// stats.Figure4Buckets (plus the final 200+ entry).
	CDF []float64

	// P95Millis is the 95th-percentile response time.
	P95Millis float64

	// CacheHitFraction is the share of disk requests served from cache.
	CacheHitFraction float64
}

// WorkloadResult is one Figure 4 panel.
type WorkloadResult struct {
	Workload trace.Params
	Steps    []RPMStep
}

// Improvements returns the relative mean-response-time reduction of each
// faster step versus the baseline.
func (r WorkloadResult) Improvements() []float64 {
	if len(r.Steps) == 0 {
		return nil
	}
	base := r.Steps[0].MeanMillis
	out := make([]float64, len(r.Steps)-1)
	for i, s := range r.Steps[1:] {
		out[i] = stats.Improvement(base, s.MeanMillis)
	}
	return out
}

// RunFigure4Steps runs an explicit RPM sweep on the batch path, the one
// that reports the exact p95 order statistic (cmd/tracesim -exact). The
// same generated trace drives every speed (only the array's spindle speed
// changes), exactly as the paper replays each trace against faster drives.
// Each step is an independent simulation: the worker builds its own volume
// (no simulator state is shared), replays the one shared read-only trace,
// and summarises its own completions, so the steps run concurrently
// without changing a bit of the output (workers <= 0 uses
// parallel.Default(); 1 forces the sequential path).
func RunFigure4Steps(p trace.Params, steps []units.RPM, workers int) (WorkloadResult, error) {
	res := WorkloadResult{Workload: p}
	if len(steps) == 0 {
		return res, nil
	}

	// The first step's volume doubles as the capacity probe (capacity does
	// not depend on the spindle speed), so no throwaway volume is built.
	first, err := p.BuildVolume(steps[0])
	if err != nil {
		return res, err
	}
	// Generate once; every step replays the identical request sequence.
	reqs, err := p.Generate(first.Capacity())
	if err != nil {
		return res, err
	}

	out, err := parallel.Map(workers, steps, func(i int, rpm units.RPM) (RPMStep, error) {
		vol := first
		if i != 0 {
			var err error
			if vol, err = p.BuildVolume(rpm); err != nil {
				return RPMStep{}, err
			}
		}
		comps, err := vol.Simulate(reqs)
		if err != nil {
			return RPMStep{}, fmt.Errorf("core: %s at %v: %w", p.Name, rpm, err)
		}
		return summarizeStep(rpm, comps), nil
	})
	if err != nil {
		return res, err
	}
	res.Steps = out
	return res, nil
}

// summarizeStep folds one RPM step's completions into the Figure 4 metrics.
func summarizeStep(rpm units.RPM, comps []raid.Completion) RPMStep {
	var sample stats.Sample
	var hits, subs int
	for _, c := range comps {
		sample.Add(c.Response())
		hits += c.CacheHits
		subs += c.SubRequests
	}
	step := RPMStep{
		RPM:        rpm,
		MeanMillis: sample.Mean(),
		CDF:        sample.Figure4CDF(),
		P95Millis:  sample.Percentile(95),
	}
	if subs > 0 {
		step.CacheHitFraction = float64(hits) / float64(subs)
	}
	return step
}

// FormatResult renders one panel as text (CDF rows per RPM plus the means),
// mirroring how Figure 4 presents each workload.
func FormatResult(r WorkloadResult) string {
	s := fmt.Sprintf("%s (%d disks, %v, baseline %v)\n",
		r.Workload.Name, r.Workload.Disks, r.Workload.Level, r.Workload.BaselineRPM)
	s += "                    <=5    <=10   <=20   <=40   <=60   <=90  <=120  <=150  <=200   200+\n"
	for _, st := range r.Steps {
		s += stats.FormatCDFRow(fmt.Sprintf("%v", st.RPM), st.CDF) +
			fmt.Sprintf("   mean=%.2fms p95=%.1fms hit=%.0f%%\n",
				st.MeanMillis, st.P95Millis, st.CacheHitFraction*100)
	}
	return s
}

// SimDuration reports the simulated wall-clock span of a request set.
func SimDuration(reqs int, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(reqs) / rate * float64(time.Second))
}
