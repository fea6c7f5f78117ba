package main

import (
	"fmt"
	"io"
	"time"
)

// passTimes is a timed phase that repeats a fixed list of units (one
// array's sweep, one policy run) in passes until its budget is spent.
// scaled[i] lists unit i's durations, one per pass that reached it, scaled
// to the reference host speed (see calibration); raw[i] the same unscaled.
//
// Every figure is built from each unit's median across passes, which
// ignores a minority of slow or fast passes.
type passTimes struct {
	scaled, raw [][]time.Duration
	elapsed     time.Duration
}

// timedPasses runs unit(pass, i) for i over units, pass after pass, until
// budget has elapsed; the first pass always completes.
func timedPasses(units int, budget time.Duration, unit func(pass, i int) error) (passTimes, error) {
	pt := passTimes{scaled: make([][]time.Duration, units), raw: make([][]time.Duration, units)}
	cal := newCalibration()
	start := time.Now()
	deadline := start.Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i := 0; i < units; i++ {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			raw, scaled, err := cal.time(func() error { return unit(pass, i) })
			if err != nil {
				return pt, err
			}
			pt.scaled[i] = append(pt.scaled[i], scaled)
			pt.raw[i] = append(pt.raw[i], raw)
		}
	}
	pt.elapsed = time.Since(start)
	return pt, nil
}

// medians is each unit's median duration in ms.
func medians(times [][]time.Duration) []float64 {
	out := make([]float64, len(times))
	for i, ts := range times {
		xs := make([]float64, len(ts))
		for j, t := range ts {
			xs[j] = ms(t)
		}
		out[i] = median(xs)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// addMetrics reports the end-to-end metrics of a pass-based workload whose
// pass simulates perPass requests: throughput over the median pass (each
// unit at its median scaled duration) and job latency over the units'
// medians.
func (pt passTimes) addMetrics(o *outcome, setup time.Duration, rss, perPass float64) {
	meds := medians(pt.scaled)
	passMS := sum(meds)
	o.add("setup_s", "s", setup.Seconds())
	o.add("sim_req_per_s", "1/s", perPass/passMS*1000)
	o.add("latency_p50_ms", "ms", quantile(meds, 0.5))
	o.add("latency_p90_ms", "ms", quantile(meds, 0.9))
	o.add("rss_peak_mb", "MB", rss)
}

// log writes a one-line summary of the timed phase, with the unscaled
// throughput beside the scaled one.
func (pt passTimes) log(w io.Writer, name string, perPass float64) {
	n := 0
	for _, ts := range pt.raw {
		n += len(ts)
	}
	fmt.Fprintf(w, "%s: %d runs of %d units in %v; sim_req_per_s %.0f scaled, %.0f raw\n", name, n, len(pt.raw),
		pt.elapsed.Round(time.Millisecond), perPass/sum(medians(pt.scaled))*1000, perPass/sum(medians(pt.raw))*1000)
}
