package repro

// The replay's layers and its streaming engine, timed on their own. Every
// benchmark here is gated by a row in BENCH_sim.json, through
// cmd/benchdiff in CI's bench job; the paper's tables and figures are
// regenerated by cmd/experiments and checked by the tier-1 goldens.

import (
	"fmt"
	"testing"

	"repro/internal/capacity"
	"repro/internal/geometry"
	"repro/internal/raid"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// BenchmarkDiskServe times Disk.Serve back to back on a random 8-sector,
// 30%-write stream. One op is 1,000 serves, so a small -benchtime times the
// disk rather than the benchmark's timer.
func BenchmarkDiskServe(b *testing.B) {
	bpi, tpi := scaling.DefaultTrend().Densities(2002)
	layout, err := capacity.New(capacity.Config{
		Geometry: geometry.Drive{PlatterDiameter: 3.3, Platters: 4, FormFactor: geometry.FormFactor35},
		BPI:      bpi, TPI: tpi, Zones: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	disk, err := newDisk(layout, 15000)
	if err != nil {
		b.Fatal(err)
	}
	const serves = 1000
	reqs := syntheticStream(layout.TotalSectors(), serves, 1e9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			r.Arrival = disk.ReadyTime()
			if _, err := disk.Serve(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*serves), "ns/serve")
}

// BenchmarkCapacityLayout times capacity.New for the Cheetah 15K.3's
// 30-zone layout, which includes building Locate's zone index.
func BenchmarkCapacityLayout(b *testing.B) {
	cfg := capacity.Config{
		Geometry: geometry.Drive{PlatterDiameter: 2.6, Platters: 4, FormFactor: geometry.FormFactor35},
		BPI:      533000, TPI: 64000, Zones: 30,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := capacity.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGenerate times generating 10,000 HPL Openmail requests,
// the trace draws of every replay.
func BenchmarkTraceGenerate(b *testing.B) {
	w := trace.Workloads[0].WithRequests(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.Generate(1 << 28); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Streaming engine vs whole-trace batch (results in BENCH_sim.json) ---

// benchSink defeats dead-code elimination in the streaming benchmarks.
var benchSink int

// simBenchWorkload returns the TPC-C mix scaled to n requests.
func simBenchWorkload(b *testing.B, n int) trace.Params {
	b.Helper()
	for _, w := range trace.Workloads {
		if w.Name == "TPC-C" {
			return w.WithRequests(n)
		}
	}
	b.Fatal("TPC-C workload missing")
	return trace.Params{}
}

// BenchmarkSimTraceSource pins the memory contract of the lazy trace
// generator: Generate materializes the whole request slice (allocations grow
// with the trace length), while draining Stream costs a fixed handful of
// allocations no matter how long the trace is.
func BenchmarkSimTraceSource(b *testing.B) {
	for _, n := range []int{100_000, 1_000_000} {
		w := simBenchWorkload(b, n)
		vol, err := w.BuildVolume(w.BaselineRPM)
		if err != nil {
			b.Fatal(err)
		}
		sectors := vol.Capacity()
		b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reqs, err := w.Generate(sectors)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = len(reqs)
			}
		})
		b.Run(fmt.Sprintf("stream-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := w.Stream(sectors)
				if err != nil {
					b.Fatal(err)
				}
				count := 0
				for {
					if _, ok := src.Next(); !ok {
						break
					}
					count++
				}
				benchSink = count
			}
		})
	}
}

// BenchmarkSimVolumeBatch1M replays a million TPC-C requests through the
// whole-trace path: the request and completion slices dominate the
// allocation profile.
func BenchmarkSimVolumeBatch1M(b *testing.B) {
	w := simBenchWorkload(b, 1_000_000)
	var mean float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vol, err := w.BuildVolume(w.BaselineRPM)
		if err != nil {
			b.Fatal(err)
		}
		reqs, err := w.Generate(vol.Capacity())
		if err != nil {
			b.Fatal(err)
		}
		comps, err := vol.SimulateBatch(reqs)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, c := range comps {
			sum += c.Response().Seconds() * 1e3
		}
		mean = sum / float64(len(comps))
	}
	b.ReportMetric(mean, "mean-ms")
}

// BenchmarkSimVolumeStream1M is the same workload on the event engine with
// the O(1) streaming accumulators: no slice ever holds the trace, so the
// allocation count stays flat as the request count grows.
func BenchmarkSimVolumeStream1M(b *testing.B) {
	w := simBenchWorkload(b, 1_000_000)
	var m float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vol, err := w.BuildVolume(w.BaselineRPM)
		if err != nil {
			b.Fatal(err)
		}
		src, err := w.Stream(vol.Capacity())
		if err != nil {
			b.Fatal(err)
		}
		var mean stats.Running
		err = vol.RunStream(sim.NewEngine(), src,
			sim.SinkFunc[raid.Completion](func(c raid.Completion) { mean.Add(c.Response()) }))
		if err != nil {
			b.Fatal(err)
		}
		m = mean.Mean()
	}
	b.ReportMetric(m, "mean-ms")
}
