package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/capacity"
	"repro/internal/disksim"
	"repro/internal/dtm"
	"repro/internal/scaling"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// dtm-policies: the five DTM controllers plus the envelope-design baseline,
// each through its public RunStream on the 2005 reference drive and
// configured as simd's dtm job configures it, all on the same seeded
// dtm.SyntheticSource stream. One "job" is one policy run.

// dtmRate is the arrival rate: every controller takes at least one control
// action at it while the baseline's queue stays bounded.
const dtmRate = 170.0

// dtmSampleEvery is the traced run's span sampling period in requests.
const dtmSampleEvery = 256

var dtmPolicies = []string{"envelope", "watermark", "slack-ramp", "drpm", "escalation", "predictive"}

// envelopeBound lists the controllers that must hold the drive under
// thermal.Envelope (plus envelopeSlack).
var envelopeBound = map[string]bool{"watermark": true, "predictive": true, "drpm": true}

const envelopeSlack = 0.1

// The reference drive's two speeds, as simd's dtm job sets them: the
// envelope-design speed and the average-case speed that overheats.
const (
	envelopeRPM units.RPM = 15020
	hotRPM      units.RPM = 24534
)

type dtmSize struct{ requests, warmup int }

// dtmSizing keeps the full run length even for test-sized inputs: starting
// at ambient, the drive needs about 20 simulated minutes at dtmRate before
// every controller has had to act.
func dtmSizing(tiny bool) dtmSize {
	if tiny {
		return dtmSize{requests: 200000, warmup: 200}
	}
	return dtmSize{requests: 200000, warmup: 20000}
}

// dtmFixture is the reference drive's recording layout, shared read-only
// by every policy run.
type dtmFixture struct {
	layout *capacity.Layout
	seed   int64
	rate   float64
}

func newDTMFixture(seed int64) (*dtmFixture, error) {
	bpi, tpi := scaling.DefaultTrend().Densities(2005)
	layout, err := capacity.New(capacity.Config{Geometry: thermal.ReferenceDrive, BPI: bpi, TPI: tpi, Zones: 50})
	if err != nil {
		return nil, err
	}
	return &dtmFixture{layout: layout, seed: deriveSeed(seed, "dtm.SyntheticSource", 0), rate: dtmRate}, nil
}

func (fx *dtmFixture) source(n int) sim.Source[disksim.Request] {
	return dtm.SyntheticSource(fx.layout.TotalSectors(), n, fx.rate, fx.seed)
}

// policyOut is the exactly-comparable summary of one policy run. The P²
// p95 of the streaming path is left out: batch Run reports the exact one.
type policyOut struct {
	name    string
	mean    float64
	maxAir  units.Celsius
	elapsed time.Duration
	// counts: throttles, transitions, step-downs, offlines.
	counts [4]int
}

func (p policyOut) actions() int { return p.counts[0] + p.counts[1] + p.counts[2] + p.counts[3] }

func (p policyOut) fold(d *digest) {
	d.str(p.name)
	d.float(p.mean)
	d.float(float64(p.maxAir))
	d.int(int64(p.elapsed))
	for _, c := range p.counts {
		d.int(int64(c))
	}
}

// policy is one fresh policy instance (its own disk and thermal model):
// run either stream or batch, once.
type policy struct {
	th      *thermal.Model
	initial thermal.State
	rpm     units.RPM
	stream  func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (policyOut, error)
	batch   func(reqs []disksim.Request) (policyOut, error)
}

func newPolicy(fx *dtmFixture, name string) (*policy, error) {
	th, err := thermal.New(thermal.ReferenceDrive)
	if err != nil {
		return nil, err
	}
	p := &policy{th: th, initial: thermal.Uniform(thermal.DefaultAmbient)}
	newDisk := func(rpm units.RPM) (*disksim.Disk, error) {
		p.rpm = rpm
		return disksim.New(disksim.Config{Layout: fx.layout, RPM: rpm})
	}
	out := func(mean float64, maxAir units.Celsius, elapsed time.Duration, counts ...int) policyOut {
		o := policyOut{name: name, mean: mean, maxAir: maxAir, elapsed: elapsed}
		copy(o.counts[:], counts)
		return o
	}
	switch name {
	case "envelope":
		disk, err := newDisk(envelopeRPM)
		if err != nil {
			return nil, err
		}
		p.stream = func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (policyOut, error) {
			return out(0, 0, 0), disk.RunStream(eng, src, sink)
		}
		p.batch = func(reqs []disksim.Request) (policyOut, error) {
			comps, err := disk.Simulate(reqs)
			var s stats.Sample
			for _, c := range comps {
				s.Add(c.Response())
			}
			return out(s.Mean(), 0, 0), err
		}
	case "watermark":
		disk, err := newDisk(hotRPM)
		if err != nil {
			return nil, err
		}
		ctl := dtm.Controller{Disk: disk, Thermal: th, Mode: dtm.VCMOnly}
		conv := func(r dtm.Result, err error) (policyOut, error) {
			return out(r.MeanResponseMillis, r.MaxAirTemp, r.Elapsed, r.ThrottleEvents), err
		}
		p.stream = func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (policyOut, error) {
			return conv(ctl.RunStream(eng, src, sink))
		}
		p.batch = func(reqs []disksim.Request) (policyOut, error) { return conv(ctl.Run(reqs)) }
	case "slack-ramp":
		disk, err := newDisk(envelopeRPM)
		if err != nil {
			return nil, err
		}
		ramp := dtm.SlackRamp{Disk: disk, Thermal: th, BoostRPM: hotRPM}
		conv := func(r dtm.RampResult, err error) (policyOut, error) {
			return out(r.MeanResponseMillis, r.MaxAirTemp, r.Elapsed, 0, r.Transitions), err
		}
		p.stream = func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (policyOut, error) {
			return conv(ramp.RunStream(eng, src, sink))
		}
		p.batch = func(reqs []disksim.Request) (policyOut, error) { return conv(ramp.Run(reqs)) }
	case "drpm":
		disk, err := newDisk(hotRPM)
		if err != nil {
			return nil, err
		}
		pol := dtm.DRPM{Disk: disk, Thermal: th, Levels: []units.RPM{envelopeRPM, 18000, 21000, hotRPM}}
		conv := func(r dtm.DRPMResult, err error) (policyOut, error) {
			return out(r.MeanResponseMillis, r.MaxAirTemp, r.Elapsed, 0, r.Transitions), err
		}
		p.stream = func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (policyOut, error) {
			return conv(pol.RunStream(eng, src, sink))
		}
		p.batch = func(reqs []disksim.Request) (policyOut, error) { return conv(pol.Run(reqs)) }
	case "escalation":
		disk, err := newDisk(hotRPM)
		if err != nil {
			return nil, err
		}
		p.initial = th.SteadyState(thermal.WorstCase(hotRPM))
		esc := dtm.Escalation{
			Disk:    disk,
			Thermal: th,
			Levels:  []units.RPM{hotRPM, 21000, 18000, envelopeRPM},
			Initial: &p.initial,
		}
		conv := func(r dtm.EscalationResult, err error) (policyOut, error) {
			return out(r.MeanResponseMillis, r.MaxAirTemp, r.Elapsed, r.Throttles, 0, r.StepDowns, r.Offlines), err
		}
		p.stream = func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (policyOut, error) {
			return conv(esc.RunStream(eng, src, sink))
		}
		p.batch = func(reqs []disksim.Request) (policyOut, error) { return conv(esc.Run(reqs)) }
	case "predictive":
		// simd's dtm job has no predictive entry; the controller runs with
		// its package defaults on the watermark controller's drive.
		disk, err := newDisk(hotRPM)
		if err != nil {
			return nil, err
		}
		ctl := dtm.PredictiveController{Disk: disk, Thermal: th}
		conv := func(r dtm.PredictiveResult, err error) (policyOut, error) {
			return out(r.MeanResponseMillis, r.MaxAirTemp, r.Elapsed, r.ThrottleEvents()), err
		}
		p.stream = func(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (policyOut, error) {
			return conv(ctl.RunStream(eng, src, sink))
		}
		p.batch = func(reqs []disksim.Request) (policyOut, error) { return conv(ctl.Run(reqs)) }
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
	return p, nil
}

// progressSink is the dtm job's per-completion work: a running mean, whose
// N is the completion count.
type progressSink struct {
	mean stats.Running
}

func (s *progressSink) Push(c disksim.Completion) { s.mean.Add(c.Response()) }

// runPolicyStream runs one fresh policy instance on the shared stream and
// checks the per-run invariants.
func runPolicyStream(fx *dtmFixture, name string, n int, o *outcome) (policyOut, error) {
	p, err := newPolicy(fx, name)
	if err != nil {
		return policyOut{}, err
	}
	var sink progressSink
	res, err := p.stream(sim.NewEngine(), fx.source(n), &sink)
	if err != nil {
		return policyOut{}, fmt.Errorf("%s RunStream: %w", name, err)
	}
	checkPolicy(name, res, sink.mean, n, o)
	if name == "envelope" {
		res.mean = sink.mean.Mean()
	}
	return res, nil
}

// checkPolicy applies the per-run invariants: every request completes,
// the result's mean is the completions' mean, the envelope-holding
// controllers stay under it, and every controller acts.
func checkPolicy(name string, res policyOut, seen stats.Running, n int, o *outcome) {
	if seen.N() != int64(n) {
		o.violate("%s completed %d of %d requests", name, seen.N(), n)
	}
	if name != "envelope" && res.mean != seen.Mean() {
		o.violate("%s reported mean %v ms, its completions average %v ms", name, res.mean, seen.Mean())
	}
	if envelopeBound[name] && res.maxAir > thermal.Envelope+envelopeSlack {
		o.violate("%s let the air reach %.3f °C, over the %.2f °C envelope", name, float64(res.maxAir), float64(thermal.Envelope))
	}
	if name != "envelope" && res.actions() < 1 {
		o.violate("%s took no control action", name)
	}
}

func runDTMPolicies(cfg config) (*outcome, error) {
	size := dtmSizing(cfg.tiny)
	var fx *dtmFixture
	setup, err := timeSetup(setupReps, func() error {
		f, err := newDTMFixture(cfg.seed)
		if err != nil {
			return err
		}
		scratch := &outcome{}
		for _, name := range dtmPolicies {
			if _, err := runPolicyStream(f, name, size.warmup, scratch); err != nil {
				return err
			}
		}
		fx = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return dtmTraced(cfg, fx, size.requests)
	}

	o := &outcome{}
	first := make([]policyOut, len(dtmPolicies))
	perPass := float64(len(dtmPolicies) * size.requests)
	pt, err := timedPasses(len(dtmPolicies), cfg.seconds, func(pass, i int) error {
		res, err := runPolicyStream(fx, dtmPolicies[i], size.requests, o)
		if err != nil {
			return err
		}
		o.attempted += int64(size.requests)
		if pass == 0 {
			first[i] = res
		} else if res != first[i] {
			o.violate("pass %d of %s differs from pass 0", pass, dtmPolicies[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The peak resident set is read before the reference check, whose
	// collected stream would otherwise dominate it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	pt.log(cfg.log, "dtm-policies", perPass)

	d := newDigest()
	for _, r := range first {
		r.fold(d)
	}
	o.digest = d.hex()
	ref, err := dtmReference(fx, size.requests)
	if err != nil {
		return nil, err
	}
	o.ref = ref
	pt.addMetrics(o, setup, rss, perPass)
	for _, r := range first {
		fmt.Fprintf(cfg.log, "dtm-policies: %-10s mean %8.3f ms  max air %.3f °C  actions %d\n",
			r.name, r.mean, float64(r.maxAir), r.actions())
	}
	return o, nil
}

// dtmReference reruns every policy through its batch Run on the collected
// stream. With SampleEvery zero, batch and stream are specified to agree
// exactly on everything but the p95.
func dtmReference(fx *dtmFixture, n int) (string, error) {
	reqs := sim.Collect(fx.source(n))
	d := newDigest()
	for _, name := range dtmPolicies {
		p, err := newPolicy(fx, name)
		if err != nil {
			return "", err
		}
		res, err := p.batch(reqs)
		if err != nil {
			return "", fmt.Errorf("%s batch Run: %w", name, err)
		}
		res.fold(d)
	}
	return d.hex(), nil
}

// interval is one completion's service window, kept by the traced run for
// the thermal replay.
type interval struct{ start, finish time.Duration }

// capture is the traced run's sink: the dtm job's progress work, timed,
// plus the service windows.
type capture struct {
	progressSink
	tr    *tracer
	busy  time.Duration
	spans []interval
}

func (c *capture) Push(comp disksim.Completion) {
	a := c.tr.now()
	c.progressSink.Push(comp)
	c.busy += time.Duration(c.tr.now() - a)
	c.spans = append(c.spans, interval{comp.Start, comp.Finish})
}

// dtmTraced spends half its budget alternating an untraced pass of the six
// policies with a traced one, whose source and sink calls are timed from
// here; each policy's own busy time is its RunStream wall time minus them.
// The thermal transient's cost is then measured by replaying each traced
// run's idle/busy service windows through a fresh transient of the run's
// model. The other half goes to the service probe (serviceProbe), which
// measures the client, server, journal and surrogate layers.
func dtmTraced(cfg config, fx *dtmFixture, n int) (*outcome, error) {
	o := &outcome{}
	tr := cfg.spans
	var untraced, traced, srcBusy, sinkBusy, advBusy time.Duration
	var diskBusy time.Duration
	var srcCalls, advCalls, diskCalls, completions, actions int64
	var condHit float64
	var condRuns int
	polBusy := map[string]time.Duration{}
	polReqs := map[string]int64{}
	tracedDigest, untracedDigest := newDigest(), newDigest()
	deadline := time.Now().Add(cfg.seconds / 2)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		t0 := time.Now()
		for _, name := range dtmPolicies {
			res, err := runPolicyStream(fx, name, n, o)
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				res.fold(untracedDigest)
			}
		}
		untraced += time.Since(t0)

		t0 = time.Now()
		var replayWall time.Duration
		for _, name := range dtmPolicies {
			p, err := newPolicy(fx, name)
			if err != nil {
				return nil, err
			}
			src := fx.source(n)
			var busy time.Duration
			var calls int64
			timed := sim.SourceFunc[disksim.Request](func() (disksim.Request, bool) {
				a := tr.now()
				r, ok := src.Next()
				b := tr.now()
				busy += time.Duration(b - a)
				calls++
				if ok && r.ID%dtmSampleEvery == 0 {
					tr.record("dtm.source", 0, r.ID, a, b)
				} else {
					tr.skip(1)
				}
				return r, ok
			})
			sink := &capture{tr: tr, spans: make([]interval, 0, n)}
			a := tr.now()
			res, err := p.stream(sim.NewEngine(), timed, sink)
			b := tr.now()
			if err != nil {
				return nil, fmt.Errorf("traced %s RunStream: %w", name, err)
			}
			tr.record("dtm."+name+".run_stream", 0, -1, a, b)
			checkPolicy(name, res, sink.mean, n, o)
			if name == "envelope" {
				res.mean = sink.mean.Mean()
			}
			if pass == 0 {
				res.fold(tracedDigest)
				actions += int64(res.actions())
			}
			srcBusy += busy
			srcCalls += calls
			sinkBusy += sink.busy
			polBusy[name] += time.Duration(b-a) - busy - sink.busy
			polReqs[name] += int64(n)
			completions += int64(len(sink.spans))
			if name != "envelope" {
				condHit += p.th.CacheStats().CondHitRate()
				condRuns++
			}
			r0 := time.Now()
			d, c := replayThermal(p, sink.spans)
			advBusy += d
			advCalls += c
			if name == "envelope" {
				d, c, mean, err := replayDisk(fx, n)
				if err != nil {
					return nil, err
				}
				if mean != res.mean {
					o.violate("envelope disk replay averaged %v ms, the run %v ms", mean, res.mean)
				}
				diskBusy += d
				diskCalls += c
			}
			replayWall += time.Since(r0)
		}
		traced += time.Since(t0) - replayWall
		o.attempted += int64(len(dtmPolicies) * n)
	}
	o.digest = tracedDigest.hex()
	o.ref = untracedDigest.hex()

	attributed := srcBusy + sinkBusy
	v := map[string]float64{
		"dtm.source_ns":       float64(srcBusy) / float64(srcCalls),
		"dtm.control_actions": float64(actions),
	}
	for _, name := range dtmPolicies {
		v["dtm."+name+".ns_per_req"] = float64(polBusy[name]) / float64(polReqs[name])
		attributed += polBusy[name]
	}
	v["disksim.serve_ns"] = float64(diskBusy) / float64(diskCalls)
	// The envelope baseline's RunStream is the engine plus one Disk.Serve
	// per request, which the disk replay times on its own.
	v["sim.engine_ns"] = math.Max(0, v["dtm.envelope.ns_per_req"]-v["disksim.serve_ns"])
	v["thermal.advance_ns"] = float64(advBusy) / float64(advCalls)
	v["thermal.advance_per_req"] = float64(advCalls) / float64(completions)
	v["thermal.cond_hit_frac"] = condHit / float64(condRuns)
	v["bench.unattributed_frac"] = float64(traced-attributed) / float64(traced)
	v["bench.tracing_overhead_frac"] = float64(traced-untraced) / float64(untraced)
	if err := serviceProbe(cfg, cfg.seconds/2, o, v); err != nil {
		return nil, fmt.Errorf("service probe: %w", err)
	}
	o.metrics = perLayerMetrics(v)
	return o, nil
}

// replayThermal advances a fresh transient of the run's thermal model
// through the run's idle and busy windows, timing each Advance call.
func replayThermal(p *policy, spans []interval) (time.Duration, int64) {
	amb := thermal.DefaultAmbient
	idle := thermal.Load{RPM: p.rpm, VCMDuty: 0, Ambient: amb}
	busy := thermal.Load{RPM: p.rpm, VCMDuty: 1, Ambient: amb}
	tr := p.th.NewTransient(p.initial)
	var clock, total time.Duration
	var calls int64
	advance := func(load thermal.Load, to time.Duration) {
		if to <= clock {
			return
		}
		a := time.Now()
		tr.Advance(load, to-clock)
		total += time.Since(a)
		calls++
		clock = to
	}
	for _, s := range spans {
		advance(idle, s.start)
		advance(busy, s.finish)
	}
	return total, calls
}

// replayDisk serves the envelope baseline's request stream through a fresh
// drive of the same configuration, timing each Disk.Serve. The baseline is
// an FCFS drive at one speed, so the replay repeats its exact disk work;
// the returned mean response lets the caller check that.
func replayDisk(fx *dtmFixture, n int) (time.Duration, int64, float64, error) {
	disk, err := disksim.New(disksim.Config{Layout: fx.layout, RPM: envelopeRPM})
	if err != nil {
		return 0, 0, 0, err
	}
	src := fx.source(n)
	var busy time.Duration
	var calls int64
	var mean stats.Running
	for {
		r, ok := src.Next()
		if !ok {
			return busy, calls, mean.Mean(), nil
		}
		a := time.Now()
		c, err := disk.Serve(r)
		busy += time.Since(a)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("envelope disk replay: %w", err)
		}
		mean.Add(c.Response())
		calls++
	}
}
