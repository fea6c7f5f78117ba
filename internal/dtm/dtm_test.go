package dtm

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/thermal"
	"repro/internal/units"
)

func TestSlackShrinksWithPlatterSize(t *testing.T) {
	pts, err := Slack(nil, 1, thermal.DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if p.VCMOffRPM <= p.EnvelopeRPM {
			t.Errorf("%v: no slack (%v -> %v)", p.Size, p.EnvelopeRPM, p.VCMOffRPM)
		}
		if i > 0 && p.SlackRPM() >= pts[i-1].SlackRPM() {
			t.Errorf("slack should shrink with platter size: %v at %v vs %v at %v",
				p.SlackRPM(), p.Size, pts[i-1].SlackRPM(), pts[i-1].Size)
		}
	}
	// The paper's headline: the 2.6" drive has plenty of slack — enough to
	// run 10k+ RPM faster when idle.
	if pts[0].SlackRPM() < 8000 {
		t.Errorf("2.6\" slack = %v RPM, expected a large gap", pts[0].SlackRPM())
	}
}

func TestSlackDefaultsAndErrors(t *testing.T) {
	pts, err := Slack([]units.Inches{2.6}, 0, thermal.DefaultAmbient)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Platters != 1 {
		t.Error("platter default not applied")
	}
	if _, err := Slack([]units.Inches{9.9}, 1, thermal.DefaultAmbient); err == nil {
		t.Error("oversized platter should error")
	}
}

func TestSlackEnablesRevisedRoadmap(t *testing.T) {
	// Figure 5(b): the VCM-off design point strictly dominates the envelope
	// design, extending how long the 2.6" size meets the 40% line.
	on, err := scaling.Roadmap(scaling.Config{PlatterSizes: []units.Inches{2.6}})
	if err != nil {
		t.Fatal(err)
	}
	off, err := scaling.Roadmap(scaling.Config{PlatterSizes: []units.Inches{2.6}, VCMOff: true})
	if err != nil {
		t.Fatal(err)
	}
	onIdx, offIdx := scaling.ByYearSize(on), scaling.ByYearSize(off)
	for y := 2002; y <= 2012; y++ {
		if offIdx[y][2.6].MaxIDR <= onIdx[y][2.6].MaxIDR {
			t.Errorf("year %d: slack design not faster", y)
		}
	}
	// The paper: the 2.6" slack design exceeds the target until 2005-2006.
	if !offIdx[2005][2.6].MeetsTarget {
		t.Error("2.6\" slack design should still meet the 2005 target")
	}
	if offIdx[2008][2.6].MeetsTarget {
		t.Error("2.6\" slack design should no longer meet the 2008 target")
	}
}

func TestThrottleModeString(t *testing.T) {
	if VCMOnly.String() != "VCM-only" || VCMAndRPM.String() != "VCM+RPM" {
		t.Error("mode names wrong")
	}
	if ThrottleMode(9).String() == "" {
		t.Error("unknown mode should print")
	}
}

func TestFigure7aRatioDecreasesWithTCool(t *testing.T) {
	e := Figure7a()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	sweep, err := e.Sweep([]time.Duration{
		500 * time.Millisecond, 2 * time.Second, 8 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Ratio >= sweep[i-1].Ratio {
			t.Errorf("ratio not decreasing: %.2f at %v vs %.2f at %v",
				sweep[i].Ratio, sweep[i].TCool, sweep[i-1].Ratio, sweep[i-1].TCool)
		}
	}
	// Short pauses buy disproportionate active time; long pauses waste it.
	if sweep[0].Ratio < 1 {
		t.Errorf("sub-second throttling ratio %.2f, expected > 1", sweep[0].Ratio)
	}
}

func TestFigure7bDualSpeed(t *testing.T) {
	e := Figure7b()
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	sweep, err := e.Sweep([]time.Duration{time.Second, 4 * time.Second, 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Decreasing, and the ratio crosses 1 inside the paper's 0-8 s window:
	// utilization above 50% requires fine-granularity throttling.
	if !(sweep[0].Ratio > 1 && sweep[len(sweep)-1].Ratio < 1) {
		t.Errorf("ratio should cross 1 within the sweep: %.2f .. %.2f",
			sweep[0].Ratio, sweep[len(sweep)-1].Ratio)
	}
}

func TestThrottleValidation(t *testing.T) {
	// A drive already inside the envelope has nothing to throttle
	// (15,000 RPM is the calibrated envelope point itself).
	e := ThrottleExperiment{Drive: thermal.ReferenceDrive, RPM: 15000, Mode: VCMOnly}
	if err := e.Validate(); err == nil {
		t.Error("within-envelope drive should be rejected")
	}
	// VCM-only cannot help a drive whose VCM-off state is still too hot.
	e = ThrottleExperiment{Drive: thermal.ReferenceDrive, RPM: 37001, Mode: VCMOnly}
	if err := e.Validate(); err == nil {
		t.Error("VCM-only at 37001 RPM should be rejected (paper: 53.04 C with VCM off)")
	}
	// Bad dual-speed configuration.
	e = Figure7b()
	e.LowRPM = e.RPM + 1
	if err := e.Validate(); err == nil {
		t.Error("low speed above high speed should be rejected")
	}
	// Bad t_cool.
	if _, err := Figure7a().Ratio(0); err == nil {
		t.Error("zero t_cool should be rejected")
	}
}

// buildDTMDisk assembles a 2.6" single-platter disk at an average-case speed.
func buildDTMDisk(t testing.TB, rpm units.RPM) (*disksim.Disk, *thermal.Model) {
	t.Helper()
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		t.Fatal(err)
	}
	d, err := disksim.New(disksim.Config{Layout: layout, RPM: rpm})
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermal.New(geom)
	if err != nil {
		t.Fatal(err)
	}
	return d, th
}

// dtmWorkload builds a random workload long enough to heat the drive.
func dtmWorkload(t testing.TB, total int64, n int, rate float64) []disksim.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	reqs := make([]disksim.Request, n)
	now := 0.0
	for i := range reqs {
		now += rng.ExpFloat64() / rate
		reqs[i] = disksim.Request{
			ID:      int64(i),
			Arrival: time.Duration(now * float64(time.Second)),
			LBN:     rng.Int63n(total - 64),
			Sectors: 8,
			Write:   rng.Float64() < 0.3,
		}
	}
	return reqs
}

func TestControllerKeepsEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	disk, th := buildDTMDisk(t, 24534)
	ctl := Controller{Disk: disk, Thermal: th, Mode: VCMOnly}
	reqs := dtmWorkload(t, disk.Layout().TotalSectors(), 20000, 120)
	res, err := ctl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.MaxAirTemp) > float64(thermal.Envelope)+0.1 {
		t.Errorf("controller let the drive reach %.2f C", float64(res.MaxAirTemp))
	}
	if len(res.Completions) != len(reqs) {
		t.Errorf("served %d of %d", len(res.Completions), len(reqs))
	}
	if res.MeanResponseMillis <= 0 {
		t.Error("no response statistics")
	}
}

func TestControllerBeatsEnvelopeDesignWhenCool(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	// A light workload never nears the envelope, so the average-case
	// 24,534 RPM drive with DTM strictly beats the 15,020 RPM
	// envelope-design drive — the paper's motivation for average-case
	// design.
	fast, th := buildDTMDisk(t, 24534)
	ctl := Controller{Disk: fast, Thermal: th, Mode: VCMOnly}
	reqs := dtmWorkload(t, fast.Layout().TotalSectors(), 4000, 40)
	withDTM, err := ctl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	slow, _ := buildDTMDisk(t, 15020)
	comps, err := slow.Simulate(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	for _, c := range comps {
		sum += c.Response()
	}
	slowMean := float64(sum) / float64(len(comps)) / float64(time.Millisecond)
	if withDTM.MeanResponseMillis >= slowMean {
		t.Errorf("DTM drive (%.2f ms) not faster than envelope design (%.2f ms)",
			withDTM.MeanResponseMillis, slowMean)
	}
	if float64(withDTM.MaxAirTemp) > float64(thermal.Envelope)+0.1 {
		t.Errorf("DTM run exceeded the envelope: %v", withDTM.MaxAirTemp)
	}
}

func TestControllerConfigErrors(t *testing.T) {
	if _, err := (&Controller{}).Run(nil); err == nil {
		t.Error("empty controller should be rejected")
	}
	disk, th := buildDTMDisk(t, 24534)
	bad := Controller{Disk: disk, Thermal: th, Mode: VCMAndRPM, LowRPM: 30000}
	if _, err := bad.Run(nil); err == nil {
		t.Error("low RPM above service RPM should be rejected")
	}
}

func TestSlackRampBoostsAndStaysCool(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	disk, th := buildDTMDisk(t, 15020)
	ramp := SlackRamp{Disk: disk, Thermal: th, BoostRPM: 24534}
	reqs := dtmWorkload(t, disk.Layout().TotalSectors(), 6000, 60)
	res, err := ramp.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transitions == 0 || res.BoostedTime == 0 {
		t.Error("ramp never boosted on a light workload")
	}
	if float64(res.MaxAirTemp) > float64(thermal.Envelope)+0.1 {
		t.Errorf("ramp exceeded the envelope: %v", res.MaxAirTemp)
	}
}

func TestSlackRampConfigErrors(t *testing.T) {
	if _, err := (&SlackRamp{}).Run(nil); err == nil {
		t.Error("empty ramp should be rejected")
	}
	disk, th := buildDTMDisk(t, 20000)
	bad := SlackRamp{Disk: disk, Thermal: th, BoostRPM: 15000}
	if _, err := bad.Run(nil); err == nil {
		t.Error("boost below base should be rejected")
	}
}

func TestDefaultTCools(t *testing.T) {
	tc := DefaultTCools()
	if len(tc) != 16 || tc[0] != 500*time.Millisecond || tc[len(tc)-1] != 8*time.Second {
		t.Errorf("unexpected grid: %v", tc)
	}
}

func TestOffTrackModelShape(t *testing.T) {
	m := OffTrackModel{}
	if p := m.ProbAt(thermal.Envelope); p != 0 {
		t.Errorf("at the envelope: %v, want 0", p)
	}
	if p := m.ProbAt(thermal.Envelope - 10); p != 0 {
		t.Errorf("below the envelope: %v, want 0", p)
	}
	half := m.ProbAt(thermal.Envelope + 5)
	full := m.ProbAt(thermal.Envelope + 10)
	over := m.ProbAt(thermal.Envelope + 50)
	if half <= 0 || half >= full {
		t.Errorf("probability not rising: %v then %v", half, full)
	}
	if full != 0.25 || over != 0.25 {
		t.Errorf("saturation wrong: %v, %v (want 0.25)", full, over)
	}
}

// TestOffTrackRetriesAboveEnvelope runs a drive past the envelope without
// DTM and shows the off-track mechanism degrading service — the paper's
// reliability argument in performance terms.
func TestOffTrackRetriesAboveEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	geom := thermal.ReferenceDrive
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: geom, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		t.Fatal(err)
	}
	th, err := thermal.New(geom)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the drive at a hot steady state (no controller): 24,534 RPM
	// worst case is 48.5 C — 3.3 C over the envelope.
	hot := th.SteadyState(thermal.WorstCase(24534))
	model := OffTrackModel{}
	d, err := disksim.New(disksim.Config{Layout: layout, RPM: 24534, CacheBytes: -1,
		Faults: NewThermalFaults(model, reliability.Default(), BindSteady(hot.Air), 1)})
	if err != nil {
		t.Fatal(err)
	}
	reqs := dtmWorkload(t, layout.TotalSectors(), 3000, 80)
	if _, err := d.Simulate(reqs); err != nil {
		t.Fatal(err)
	}
	if d.Retries() == 0 {
		t.Error("an over-envelope drive should suffer off-track retries")
	}
	// The retry rate should be near p = ProbAt(48.5 C): each access draws
	// a geometric run of retries, about p/(1-p) of them.
	want := model.ProbAt(hot.Air)
	got := float64(d.Retries()) / 3000
	if got < want/2 || got > want*2 {
		t.Errorf("retry rate %.3f, expected near %.3f", got, want)
	}
}

func TestSeekDutyRunsCooler(t *testing.T) {
	if testing.Short() {
		t.Skip("long thermal-coupled run")
	}
	reqs := dtmWorkload(t, 1<<24, 12000, 130)
	run := func(seekDuty bool) units.Celsius {
		disk, th := buildDTMDisk(t, 24534)
		for i := range reqs {
			reqs[i].LBN %= disk.Layout().TotalSectors() - 64
		}
		ctl := Controller{Disk: disk, Thermal: th, Mode: VCMOnly, SeekDuty: seekDuty}
		res, err := ctl.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxAirTemp
	}
	conservative := run(false)
	refined := run(true)
	if refined >= conservative {
		t.Errorf("seek-proportional duty (%v) should run cooler than worst-case duty (%v)",
			refined, conservative)
	}
}
