package repro

// The benchmark harness: one benchmark per table and figure of the paper.
// Each benchmark regenerates its artifact and reports the headline numbers
// as custom metrics, so `go test -bench=. -benchmem` doubles as the
// reproduction run. The Figure 4 benchmarks scale the trace length down;
// cmd/tracesim replays the full request counts.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/drive"
	"repro/internal/dtm"
	"repro/internal/geometry"
	"repro/internal/power"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/trace"
	"repro/internal/units"
)

// BenchmarkTable1Validation rebuilds the thirteen-drive corpus and checks
// capacity and IDR against the paper's model columns.
func BenchmarkTable1Validation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, v := range drive.Table1 {
			m, err := drive.New(v.Config())
			if err != nil {
				b.Fatal(err)
			}
			if d := relErr(m.Capacity().GB(), v.PaperModelCapGB); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst*100, "worst-cap-%err")
}

// BenchmarkTable2Envelope evaluates the envelope-invariance property.
func BenchmarkTable2Envelope(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		lo, hi := 1e9, -1e9
		for _, e := range drive.Table2 {
			v := float64(e.MaxOperating)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "rated-max-spread-C")
}

// BenchmarkFigure1Transient runs the Cheetah 15K.3 warm-up to steady state.
func BenchmarkFigure1Transient(b *testing.B) {
	m, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		b.Fatal(err)
	}
	load := thermal.WorstCase(15000)
	var final float64
	for i := 0; i < b.N; i++ {
		tr := m.NewTransient(thermal.Uniform(thermal.DefaultAmbient))
		tr.Advance(load, 48*time.Minute)
		final = float64(tr.State().Air)
	}
	b.ReportMetric(final, "T48min-C")
}

// BenchmarkTable3Roadmap generates the required-RPM table for 2002-2012.
func BenchmarkTable3Roadmap(b *testing.B) {
	var rpm2012 float64
	for i := 0; i < b.N; i++ {
		pts, err := scaling.Roadmap(scaling.Config{})
		if err != nil {
			b.Fatal(err)
		}
		idx := scaling.ByYearSize(pts)
		rpm2012 = float64(idx[2012][2.6].RequiredRPM)
	}
	b.ReportMetric(rpm2012, "2.6in-2012-RPM")
}

// BenchmarkFigure2Roadmap generates all three platter-count roadmaps.
func BenchmarkFigure2Roadmap(b *testing.B) {
	var falloff float64
	for i := 0; i < b.N; i++ {
		for _, platters := range []int{1, 2, 4} {
			pts, err := scaling.Roadmap(scaling.Config{Platters: platters})
			if err != nil {
				b.Fatal(err)
			}
			if platters == 1 {
				falloff = float64(scaling.FalloffYear(pts))
			}
		}
	}
	b.ReportMetric(falloff, "1p-falloff-year")
}

// BenchmarkFigure3Cooling generates the cooling-sensitivity roadmaps.
func BenchmarkFigure3Cooling(b *testing.B) {
	var falloff10 float64
	for i := 0; i < b.N; i++ {
		for _, delta := range []units.Celsius{0, -5, -10} {
			pts, err := scaling.Roadmap(scaling.Config{AmbientDelta: delta})
			if err != nil {
				b.Fatal(err)
			}
			if delta == -10 {
				falloff10 = float64(scaling.FalloffYear(pts))
			}
		}
	}
	b.ReportMetric(falloff10, "cooled-falloff-year")
}

// BenchmarkFormFactor runs the section 4.2.2 small-enclosure study.
func BenchmarkFormFactor(b *testing.B) {
	var maxRPM float64
	for i := 0; i < b.N; i++ {
		pts, err := scaling.Roadmap(scaling.Config{
			FormFactor:   geometry.FormFactor25,
			PlatterSizes: []units.Inches{2.6},
		})
		if err != nil {
			b.Fatal(err)
		}
		maxRPM = float64(pts[0].MaxRPM)
	}
	b.ReportMetric(maxRPM, "ff25-max-RPM")
}

// benchFigure4 runs one workload at a reduced request count.
func benchFigure4(b *testing.B, name string, requests int) {
	w, err := trace.WorkloadByName(name)
	if err != nil {
		b.Fatal(err)
	}
	w = w.WithRequests(requests)
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunFigure4StepsStream(w, core.Figure4Steps(w.BaselineRPM), 0)
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Improvements()[0]
	}
	b.ReportMetric(gain*100, "+5kRPM-gain-%")
}

// BenchmarkFigure4Workloads reproduces each Figure 4 panel (scaled traces).
func BenchmarkFigure4Workloads(b *testing.B) {
	cases := []struct {
		name     string
		requests int
	}{
		{"HPL Openmail", 40000},
		{"OLTP Application", 40000},
		{"Search-Engine", 40000},
		{"TPC-C", 40000},
		{"TPC-H", 40000},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) { benchFigure4(b, c.name, c.requests) })
	}
}

// BenchmarkFigure5Slack quantifies the thermal slack per platter size.
func BenchmarkFigure5Slack(b *testing.B) {
	var slack26 float64
	for i := 0; i < b.N; i++ {
		pts, err := dtm.Slack(nil, 1, thermal.DefaultAmbient)
		if err != nil {
			b.Fatal(err)
		}
		slack26 = float64(pts[0].SlackRPM())
	}
	b.ReportMetric(slack26, "2.6in-slack-RPM")
}

// BenchmarkFigure7Throttling sweeps both throttling scenarios.
func BenchmarkFigure7Throttling(b *testing.B) {
	tcools := []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second}
	var lastRatio float64
	for i := 0; i < b.N; i++ {
		for _, e := range []dtm.ThrottleExperiment{dtm.Figure7a(), dtm.Figure7b()} {
			sweep, err := e.Sweep(tcools)
			if err != nil {
				b.Fatal(err)
			}
			lastRatio = sweep[len(sweep)-1].Ratio
		}
	}
	b.ReportMetric(lastRatio, "7b-ratio-at-8s")
}

// BenchmarkDTMPolicies runs the closed-loop watermark controller on a random
// stream (the X1 extension experiment).
func BenchmarkDTMPolicies(b *testing.B) {
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		b.Fatal(err)
	}
	reqs := syntheticStream(layout.TotalSectors(), 5000, 100)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disk, err := newDisk(layout, 24534)
		if err != nil {
			b.Fatal(err)
		}
		th, err := thermal.New(geom)
		if err != nil {
			b.Fatal(err)
		}
		ctl := dtm.Controller{Disk: disk, Thermal: th, Mode: dtm.VCMOnly}
		res, err := ctl.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		mean = res.MeanResponseMillis
	}
	b.ReportMetric(mean, "mean-ms")
}

// BenchmarkCapacityAblation decomposes the reference drive's overheads (X2).
func BenchmarkCapacityAblation(b *testing.B) {
	var ecc float64
	for i := 0; i < b.N; i++ {
		l, err := capacity.New(capacity.Config{
			Geometry: thermal.ReferenceDrive,
			BPI:      533000, TPI: 64000, Zones: 30,
		})
		if err != nil {
			b.Fatal(err)
		}
		ecc = l.Breakdown().ECCLoss
	}
	b.ReportMetric(ecc*100, "ECC-loss-%")
}

// Microbenchmarks of the hot paths.

func BenchmarkSteadyState(b *testing.B) {
	m, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		b.Fatal(err)
	}
	load := thermal.WorstCase(24534)
	for i := 0; i < b.N; i++ {
		_ = m.SteadyState(load)
	}
}

func BenchmarkTransientMinute(b *testing.B) {
	m, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		b.Fatal(err)
	}
	load := thermal.WorstCase(15000)
	tr := m.NewTransient(thermal.Uniform(28))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Advance(load, time.Minute)
	}
}

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

// Benchmarks of the extension subsystems.

func BenchmarkPowerModel(b *testing.B) {
	pm, err := power.New(thermal.ReferenceDrive)
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	for i := 0; i < b.N; i++ {
		total = float64(pm.Active(24534).Total())
	}
	b.ReportMetric(total, "active-W-at-24.5k")
}

func BenchmarkReliabilityExposure(b *testing.B) {
	rel := reliability.Default()
	var ext float64
	for i := 0; i < b.N; i++ {
		cool := reliability.NewExposure(rel)
		cool.Add(thermal.Envelope-5, time.Hour)
		hot := reliability.NewExposure(rel)
		hot.Add(thermal.Envelope, time.Hour)
		e, err := cool.LifeExtension(hot)
		if err != nil {
			b.Fatal(err)
		}
		ext = e
	}
	b.ReportMetric(ext, "life-extension-5C")
}

func BenchmarkMirrorPolicy(b *testing.B) {
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		b.Fatal(err)
	}
	reqs := syntheticStream(layout.TotalSectors(), 4000, 150)
	var switches float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var disks [2]*disksim.Disk
		var models [2]*thermal.Model
		for j := range disks {
			d, err := newDisk(layout, 24534)
			if err != nil {
				b.Fatal(err)
			}
			th, err := thermal.New(geom)
			if err != nil {
				b.Fatal(err)
			}
			disks[j], models[j] = d, th
		}
		warm := models[0].SteadyState(thermal.Load{RPM: 24534, VCMDuty: 0.6, Ambient: thermal.DefaultAmbient})
		p := dtm.MirrorPolicy{Disks: disks, Thermal: models, Initial: &warm}
		res, err := p.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		switches = float64(res.Switches)
	}
	b.ReportMetric(switches, "role-switches")
}

func BenchmarkDRPMPolicy(b *testing.B) {
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		b.Fatal(err)
	}
	reqs := syntheticStream(layout.TotalSectors(), 4000, 140)
	var transitions float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		disk, err := newDisk(layout, 24534)
		if err != nil {
			b.Fatal(err)
		}
		th, err := thermal.New(geom)
		if err != nil {
			b.Fatal(err)
		}
		warm := th.SteadyState(thermal.Load{RPM: 24534, VCMDuty: 0.62, Ambient: thermal.DefaultAmbient})
		p := dtm.DRPM{Disk: disk, Thermal: th,
			Levels: []units.RPM{15020, 18000, 21000, 24534}, Initial: &warm}
		res, err := p.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		transitions = float64(res.Transitions)
	}
	b.ReportMetric(transitions, "level-transitions")
}

func BenchmarkLOOKScheduler(b *testing.B) {
	bpi, tpi := scaling.DefaultTrend().Densities(2002)
	layout, err := capacity.New(capacity.Config{
		Geometry: geometry.Drive{PlatterDiameter: 3.3, Platters: 4, FormFactor: geometry.FormFactor35},
		BPI:      bpi, TPI: tpi, Zones: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := syntheticStream(layout.TotalSectors(), 2000, 1e9) // saturated backlog
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := disksim.New(disksim.Config{Layout: layout, RPM: 15000, Scheduler: disksim.LOOK})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Simulate(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceAnalyze(b *testing.B) {
	w, err := trace.WorkloadByName("HPL Openmail")
	if err != nil {
		b.Fatal(err)
	}
	w = w.WithRequests(10000)
	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := w.Generate(vol.Capacity())
	if err != nil {
		b.Fatal(err)
	}
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof, err := w.Analyze(reqs)
		if err != nil {
			b.Fatal(err)
		}
		frac = prof.ArmMoveFraction
	}
	b.ReportMetric(frac*100, "arm-move-%")
}

func BenchmarkCounterfactualRoadmap(b *testing.B) {
	var falloff float64
	for i := 0; i < b.N; i++ {
		pts, err := scaling.Roadmap(scaling.Config{Trend: scaling.OptimisticTrend()})
		if err != nil {
			b.Fatal(err)
		}
		falloff = float64(scaling.FalloffYear(pts))
	}
	b.ReportMetric(falloff, "optimistic-falloff-year")
}

func BenchmarkDesignWalk(b *testing.B) {
	var lastCap float64
	for i := 0; i < b.N; i++ {
		steps, err := scaling.DesignWalk(scaling.WalkConfig{})
		if err != nil {
			b.Fatal(err)
		}
		lastCap = steps[len(steps)-1].Capacity.GB()
	}
	b.ReportMetric(lastCap, "2012-capacity-GB")
}

func BenchmarkArrayPlacement(b *testing.B) {
	bay := []array.Slot{
		{Drive: thermal.ReferenceDrive, RPM: 24534, VCMDuty: 1},
		{Drive: thermal.ReferenceDrive, RPM: 10000, VCMDuty: 0.3},
		{Drive: thermal.ReferenceDrive, RPM: 24534, VCMDuty: 1},
		{Drive: thermal.ReferenceDrive, RPM: 10000, VCMDuty: 0.3},
	}
	c := array.Chassis{Inlet: thermal.DefaultAmbient, AirflowCFM: 10}
	var hot float64
	for i := 0; i < b.N; i++ {
		_, best, err := array.OptimalOrder(c, bay)
		if err != nil {
			b.Fatal(err)
		}
		hot = float64(array.HottestAir(best))
	}
	b.ReportMetric(hot, "best-hottest-C")
}

func BenchmarkSpinDownAnalysis(b *testing.B) {
	pm, err := power.New(thermal.ReferenceDrive)
	if err != nil {
		b.Fatal(err)
	}
	bpi, tpi := scaling.DefaultTrend().Densities(2002)
	layout, err := capacity.New(capacity.Config{Geometry: thermal.ReferenceDrive, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		b.Fatal(err)
	}
	disk, err := newDisk(layout, 15000)
	if err != nil {
		b.Fatal(err)
	}
	var comps []disksim.Completion
	for _, r := range syntheticStream(layout.TotalSectors(), 2000, 5) { // sparse: 5 req/s
		c, err := disk.Serve(r)
		if err != nil {
			b.Fatal(err)
		}
		comps = append(comps, c)
	}
	var savings float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pm.EvaluateSpinDown(15000, comps, power.SpinDownPolicy{IdleTimeout: 2 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		savings = res.Savings()
	}
	b.ReportMetric(savings*100, "energy-savings-%")
}

// degradedFixture builds a volume with member 0 failed, a recovery session,
// and a request stream, for the degraded-mode benchmarks.
func degradedFixture(b *testing.B, level raid.Level, n int, spares int, rebuildMB float64) (*raid.RecoverySession, []raid.Request) {
	b.Helper()
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: thermal.ReferenceDrive, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		b.Fatal(err)
	}
	disks := make([]*disksim.Disk, n)
	for i := range disks {
		if disks[i], err = newDisk(layout, 15020); err != nil {
			b.Fatal(err)
		}
	}
	v, err := raid.New(level, disks, raid.DefaultStripeUnit)
	if err != nil {
		b.Fatal(err)
	}
	var sp []*disksim.Disk
	for i := 0; i < spares; i++ {
		d, err := newDisk(layout, 15020)
		if err != nil {
			b.Fatal(err)
		}
		sp = append(sp, d)
	}
	s, err := raid.NewRecoverySession(v, raid.RecoveryConfig{
		Reliability: reliability.Default(), RebuildMBPerSec: rebuildMB,
	}, sp...)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.FailDisk(0, 0); err != nil {
		b.Fatal(err)
	}
	rs := syntheticStream(v.Capacity(), 400, 120)
	reqs := make([]raid.Request, len(rs))
	for i, r := range rs {
		reqs[i] = raid.Request{ID: r.ID, Arrival: r.Arrival, Block: r.LBN, Sectors: r.Sectors, Write: r.Write}
	}
	return s, reqs
}

// BenchmarkDegradedMirrorService prices RAID-1 failover: every read lands on
// the one survivor, every write is redundancy-exposed.
func BenchmarkDegradedMirrorService(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, reqs := degradedFixture(b, raid.RAID1, 2, 0, raid.DefaultRebuildMBPerSec)
		b.StartTimer()
		rep, err := s.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		var sum time.Duration
		for _, c := range rep.Completions {
			sum += c.Response()
		}
		penalty = float64(sum) / float64(len(rep.Completions)) / float64(time.Millisecond)
	}
	b.ReportMetric(penalty, "degraded-mean-ms")
}

// BenchmarkDegradedRAID5Reconstruction prices the k-1 fan-out + XOR path of
// degraded RAID-5 reads.
func BenchmarkDegradedRAID5Reconstruction(b *testing.B) {
	var recon float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, reqs := degradedFixture(b, raid.RAID5, 4, 0, raid.DefaultRebuildMBPerSec)
		b.StartTimer()
		rep, err := s.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		recon = float64(rep.Reconstructions)
	}
	b.ReportMetric(recon, "reconstructed-sectors")
}

// BenchmarkRebuildSession runs the mirror failover with a hot spare and a
// rebuild fast enough to finish inside the trace, reporting the rebuild
// window's double-failure risk.
func BenchmarkRebuildSession(b *testing.B) {
	var risk float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, reqs := degradedFixture(b, raid.RAID1, 2, 1, 5e5)
		b.StartTimer()
		rep, err := s.Run(reqs)
		if err != nil {
			b.Fatal(err)
		}
		completed := false
		for _, e := range rep.Events {
			if e.Kind == raid.EventRebuildCompleted {
				completed = true
			}
		}
		if !completed {
			b.Fatal("rebuild did not complete inside the trace")
		}
		risk = rep.RebuildRisk
	}
	b.ReportMetric(risk*1e9, "rebuild-risk-1e-9")
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
