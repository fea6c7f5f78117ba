// Predictive DTM: trajectory-based throttling. The reactive controllers in
// this package act only once a threshold is crossed; the predictor below
// regresses the recent temperature history instead and estimates when the
// trajectory will cross the envelope, so the controller can insert a short
// cooling pause *before* the limit — trading a little early throughput for
// the latency spike (and flap risk) a hard-threshold engagement pays. Slope
// regression over a sliding window and "no prediction until the window is
// full / the slope is non-positive" follow ADR-020's predict_throttle_time;
// the split engage/release bands are the 3 °C re-arm idiom (see Band).
package dtm

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// defaultPredictWindow is the sliding-window length (samples) the predictor
// regresses over when the controller leaves Window zero.
const defaultPredictWindow = 8

// maxTimeToLimit caps the horizon TimeToLimit reports for near-flat heating
// trajectories, keeping the headroom/slope division inside time.Duration's
// range. The cap preserves (non-strict) monotonicity: a shallower slope
// never predicts an earlier crossing.
const maxTimeToLimit = 1000000 * time.Second

// Predictor estimates time-to-limit by least-squares regression of recent
// (time, temperature) samples over a fixed sliding window. Storage is two
// preallocated rings — observing and predicting never allocate — so the
// streaming controllers can call it per request.
//
// The zero Predictor is not usable; construct with NewPredictor.
type Predictor struct {
	at   []float64 // sample times, seconds on the sim clock
	temp []float64 // air temperatures, °C
	head int       // next write slot
	n    int       // samples held, ≤ len(at)
}

// NewPredictor returns a predictor regressing over the last window samples
// (minimum 2; values below that get the default window of 8).
func NewPredictor(window int) *Predictor {
	if window < 2 {
		window = defaultPredictWindow
	}
	return &Predictor{at: make([]float64, window), temp: make([]float64, window)}
}

// Window is the sliding-window length in samples.
func (p *Predictor) Window() int { return len(p.at) }

// Full reports whether the window holds Window samples — the predictor
// refuses to extrapolate before then.
func (p *Predictor) Full() bool { return p.n == len(p.at) }

// Reset empties the window. Controllers reset after a cooling pause so the
// regression never straddles a discontinuity in the load (and the stage
// cannot re-engage until a fresh window of post-release samples accrues —
// a second, time-domain re-arm on top of the temperature band).
func (p *Predictor) Reset() { p.head, p.n = 0, 0 }

// Observe appends one (time, temperature) sample, evicting the oldest once
// the window is full. A sample at the same instant as the newest replaces
// it instead of duplicating the abscissa.
func (p *Predictor) Observe(at time.Duration, t units.Celsius) {
	sec := at.Seconds()
	if p.n > 0 {
		last := (p.head - 1 + len(p.at)) % len(p.at)
		if p.at[last] == sec {
			p.temp[last] = float64(t)
			return
		}
	}
	p.at[p.head] = sec
	p.temp[p.head] = float64(t)
	p.head = (p.head + 1) % len(p.at)
	if p.n < len(p.at) {
		p.n++
	}
}

// Slope is the least-squares temperature slope over the held samples,
// °C per second. Fewer than two samples (or a degenerate abscissa) give 0.
func (p *Predictor) Slope() float64 {
	if p.n < 2 {
		return 0
	}
	base := (p.head - p.n + len(p.at)) % len(p.at)
	t0 := p.at[base]
	var sx, sy, sxx, sxy float64
	for k := 0; k < p.n; k++ {
		i := (base + k) % len(p.at)
		x := p.at[i] - t0
		y := p.temp[i]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	nf := float64(p.n)
	den := nf*sxx - sx*sx
	if den <= 0 {
		return 0
	}
	return (nf*sxy - sx*sy) / den
}

// TimeToLimit extrapolates the regressed trajectory to the limit
// temperature. It reports ok=false when the window is not yet full or the
// trajectory is flat or cooling (no finite crossing ahead). The returned
// horizon is never negative: a drive already at or past the limit predicts
// zero, and shallower slopes predict horizons no shorter than steeper ones
// (capped at maxTimeToLimit).
func (p *Predictor) TimeToLimit(limit units.Celsius) (time.Duration, bool) {
	if !p.Full() {
		return 0, false
	}
	slope := p.Slope()
	if slope <= 0 {
		return 0, false
	}
	last := (p.head - 1 + len(p.at)) % len(p.at)
	headroom := float64(limit) - p.temp[last]
	if headroom <= 0 {
		return 0, true
	}
	secs := headroom / slope
	if secs >= maxTimeToLimit.Seconds() {
		return maxTimeToLimit, true
	}
	return time.Duration(secs * float64(time.Second)), true
}

// ExtrapolateTo projects the regression line to the given instant —
// the one-step-ahead prediction whose error the controller tracks. ok is
// false until the window is full.
func (p *Predictor) ExtrapolateTo(at time.Duration) (float64, bool) {
	if !p.Full() {
		return 0, false
	}
	last := (p.head - 1 + len(p.at)) % len(p.at)
	return p.temp[last] + p.Slope()*(at.Seconds()-p.at[last]), true
}

// PredictiveController throttles on the *predicted* thermal trajectory: a
// cooling pause begins when the regressed time-to-limit falls under
// LeadTime, rather than when the envelope is actually reached. A reactive
// watermark stage remains as the hard backstop (mispredictions must not
// breach the envelope), and the two stages carry independent engage/release
// hysteresis bands so releasing one cannot re-trigger the other.
type PredictiveController struct {
	// Disk services the requests. Its RPM is the high (service) speed.
	Disk *disksim.Disk

	// Thermal is the drive's thermal model.
	Thermal *thermal.Model

	// Mode selects VCM-only or dual-speed throttling (both stages).
	Mode ThrottleMode

	// LowRPM is the cool-down speed for VCMAndRPM.
	LowRPM units.RPM

	// LeadTime is the prediction horizon: the predictive stage engages once
	// the estimated time-to-limit drops to or below it (0 = 4 s).
	LeadTime time.Duration

	// Window is the predictor's sliding-window length in samples (0 = 8).
	Window int

	// Predictive is the early stage's hysteresis band: eligible to engage
	// within Engage of the envelope, cools to Release below it
	// (zero margins default to Engage 3, Release 3.5).
	Predictive Band

	// Reactive is the backstop stage's band (zero margins default to
	// Engage 0.05, Release 0.5 — the watermark Controller's lines).
	Reactive Band

	// Initial optionally warm-starts the thermal state.
	Initial *thermal.State

	// Faults, when non-nil, is installed on the disk with its Temp bound
	// to the run's transient, as in Escalation.
	Faults *ThermalFaults

	// SampleEvery, when positive, adds a periodic temperature-observation
	// tick on the event-engine clock during RunStream (zero = off).
	SampleEvery time.Duration

	// Ins is the optional metric handle set (NewInstruments); nil — the
	// default — keeps the control loop observation-free.
	Ins *Instruments
}

// PredictiveResult summarises a predictive run.
type PredictiveResult struct {
	// Completions per request, in service order (batch Run only).
	Completions []disksim.Completion

	MeanResponseMillis float64
	P95ResponseMillis  float64
	MaxAirTemp         units.Celsius

	// EarlyThrottles counts predictive-stage pauses; ReactiveThrottles
	// counts backstop engagements (ideally zero — each one is a
	// misprediction the hard stage had to absorb). ThrottledTime is their
	// combined pause duration.
	EarlyThrottles    int
	ReactiveThrottles int
	ThrottledTime     time.Duration

	// Flaps counts stage engagements within 5 s of the same stage's
	// previous release; TimeOverThreshold integrates sim time spent at or
	// above thermal.Envelope.
	Flaps             int
	TimeOverThreshold time.Duration

	// MeanAbsPredErrC is the mean absolute one-step-ahead prediction error
	// in °C over PredictionSamples extrapolations.
	MeanAbsPredErrC   float64
	PredictionSamples int64

	// Retries and Remaps are the injected-fault outcomes (zero without an
	// injector); DiskFailed/FailedAt mirror Escalation's graceful death.
	Retries, Remaps int64
	DiskFailed      bool
	FailedAt        time.Duration

	Elapsed time.Duration
}

// ThrottleEvents is the combined episode count across both stages — the
// number comparable with the reactive controllers' counters.
func (r PredictiveResult) ThrottleEvents() int { return r.EarlyThrottles + r.ReactiveThrottles }

func (pc *PredictiveController) leadTime() time.Duration {
	if pc.LeadTime == 0 {
		return 4 * time.Second
	}
	return pc.LeadTime
}

// RunStream services requests pulled lazily from src under the predictive
// policy, pushing completions to sink. The source must yield requests in
// nondecreasing arrival order (FCFS). Steady-state service is allocation
// free: the predictor rings, closures and accumulators are all bound before
// the first admission. A disk failure raised by the fault injector ends the
// stream gracefully, as in Escalation.
func (pc *PredictiveController) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (PredictiveResult, error) {
	return pc.run(context.TODO(), eng, src, sink)
}

// RunStreamCtx is RunStream with cooperative cancellation.
func (pc *PredictiveController) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (PredictiveResult, error) {
	return pc.run(ctx, eng, src, sink)
}

func (pc *PredictiveController) run(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (PredictiveResult, error) {
	if pc.Disk == nil || pc.Thermal == nil {
		return PredictiveResult{}, fmt.Errorf("dtm: predictive controller needs a disk and a thermal model")
	}
	if pc.Mode == VCMAndRPM && (pc.LowRPM <= 0 || pc.LowRPM >= pc.Disk.RPM()) {
		return PredictiveResult{}, fmt.Errorf("dtm: low speed %v must be below service speed %v", pc.LowRPM, pc.Disk.RPM())
	}
	predB := pc.Predictive.orDefault(3, 3.5)
	reactB := pc.Reactive.orDefault(guard, hysteresis)
	if predB.Release < predB.Engage {
		return PredictiveResult{}, fmt.Errorf("dtm: predictive release margin %v inside engage margin %v", predB.Release, predB.Engage)
	}
	if reactB.Release < reactB.Engage {
		return PredictiveResult{}, fmt.Errorf("dtm: reactive release margin %v inside engage margin %v", reactB.Release, reactB.Engage)
	}
	lead := pc.leadTime()
	predEngageAt, predReleaseAt := predB.engageAt(thermal.Envelope), predB.releaseAt(thermal.Envelope)
	reactEngageAt, reactReleaseAt := reactB.engageAt(thermal.Envelope), reactB.releaseAt(thermal.Envelope)

	l := newLoop(pc.Disk, pc.Thermal, pc.Initial, pc.Ins)
	l.faults, l.graceful = pc.Faults, true
	coolDown := l.load(0)
	var spin time.Duration
	if pc.Mode == VCMAndRPM {
		coolDown.RPM = pc.LowRPM
		spin = 2 * spinTransition
	}
	pred := NewPredictor(pc.Window)
	predFlaps, reactFlaps := newFlapTracker(0), newFlapTracker(0)

	var res PredictiveResult
	var predErrSum float64
	// The predictor sees every observation first, scoring its
	// one-step-ahead extrapolation before taking the new sample.
	l.observer = func(at time.Duration, t units.Celsius) {
		if predicted, ok := pred.ExtrapolateTo(at); ok {
			errC := math.Abs(predicted - float64(t))
			predErrSum += errC
			res.PredictionSamples++
			pc.Ins.predictionError(errC)
		}
		pred.Observe(at, t)
	}
	l.decide = func() {
		air := l.air()
		if air >= reactEngageAt {
			// Backstop: the hard watermark stage, for trajectories the
			// predictor missed (fresh window, sudden load shift).
			res.ReactiveThrottles++
			reactFlaps.engage(l.clock)
			p := l.pause("dtm.throttle", coolDown, coolLimit, reactReleaseAt, spin)
			res.ThrottledTime += p
			pc.Ins.throttle(p)
			reactFlaps.release(l.clock)
			pred.Reset()
			l.observe()
		} else if air >= predEngageAt {
			if ttl, ok := pred.TimeToLimit(thermal.Envelope); ok && ttl <= lead {
				// Predictive stage: the trajectory crosses the envelope
				// within the lead time — pause now, while still below it.
				res.EarlyThrottles++
				predFlaps.engage(l.clock)
				p := l.pause("dtm.predict_throttle", coolDown, coolLimit, predReleaseAt, spin)
				res.ThrottledTime += p
				pc.Ins.earlyThrottle(p)
				predFlaps.release(l.clock)
				pred.Reset()
				l.observe()
			}
		}
	}
	if err := l.run(ctx, eng, src, sink, pc.SampleEvery); err != nil {
		return PredictiveResult{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = l.summary()
	res.Flaps = predFlaps.flaps + reactFlaps.flaps
	res.TimeOverThreshold = l.over.over
	if res.PredictionSamples > 0 {
		res.MeanAbsPredErrC = predErrSum / float64(res.PredictionSamples)
	}
	res.Retries, res.Remaps, res.DiskFailed, res.FailedAt = l.faultOutcome()
	return res, nil
}

// Run services the requests (sorted by arrival, FCFS) under the predictive
// policy. It is the collect-into-slice wrapper over RunStream, with the
// response percentile computed exactly from the retained completions rather
// than P²-estimated.
func (pc *PredictiveController) Run(reqs []disksim.Request) (PredictiveResult, error) {
	var collect sim.Appender[disksim.Completion]
	res, err := pc.RunStream(sim.NewEngine(), sim.FromSlice(reqs), &collect)
	if err != nil {
		return PredictiveResult{}, err
	}
	res.Completions = collect.Items
	var sample stats.Sample
	for _, comp := range res.Completions {
		sample.Add(comp.Response())
	}
	res.MeanResponseMillis = sample.Mean()
	res.P95ResponseMillis = sample.Percentile(95)
	return res, nil
}
