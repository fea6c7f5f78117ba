// Streaming DTM: each controller is its decision between requests, run by
// the shared co-simulation loop (loop.go). RunStream and RunStreamCtx are
// the same run, with and without a context gating admission.
package dtm

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/units"
)

// spinOrDefault resolves an unset (zero) spindle-speed transition time to
// the default 2 s, in line with published two-speed drive data.
func spinOrDefault(d time.Duration) time.Duration {
	if d == 0 {
		return 2 * time.Second
	}
	return d
}

// RunStream services requests pulled lazily from src under the thermal
// policy, pushing each completion to sink as it happens. The source must
// yield requests in nondecreasing arrival order (FCFS). The returned
// Result carries streaming statistics (P² p95) and a nil Completions slice.
//
// When SampleEvery is positive, a periodic tick observes the internal air
// temperature on the engine clock, advancing the transient through idle
// gaps in sample-sized steps; MaxAirTemp then reflects those extra
// observations.
func (c *Controller) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (Result, error) {
	return c.run(context.TODO(), eng, src, sink)
}

// RunStreamCtx is RunStream with cooperative cancellation: the run ends at
// the next admission once ctx is done and reports ctx.Err() instead of a
// partial-looking result. With a never-cancelled context the two produce
// identical results.
func (c *Controller) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (Result, error) {
	return c.run(ctx, eng, src, sink)
}

func (c *Controller) run(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (Result, error) {
	if c.Disk == nil || c.Thermal == nil {
		return Result{}, fmt.Errorf("dtm: controller needs a disk and a thermal model")
	}
	if c.Mode == VCMAndRPM && (c.LowRPM <= 0 || c.LowRPM >= c.Disk.RPM()) {
		return Result{}, fmt.Errorf("dtm: low speed %v must be below service speed %v", c.LowRPM, c.Disk.RPM())
	}
	env := orEnvelope(c.Envelope)
	guardAt := env - c.guard()
	resumeAt := env - c.hysteresis()

	l := newLoop(c.Disk, c.Thermal, c.Initial, c.Ambient, c.Ins)
	coolDown := l.load(0)
	var spin time.Duration
	if c.Mode == VCMAndRPM {
		coolDown.RPM = c.LowRPM
		spin = 2 * spinOrDefault(c.SpinTransition) // down and back up
	}
	var res Result
	l.decide = func() {
		// Throttle if the drive is at the guard band.
		if l.air() >= guardAt {
			res.ThrottleEvents++
			p := l.pause("dtm.throttle", coolDown, coolLimit, resumeAt, spin)
			res.ThrottledTime += p
			c.Ins.throttle(p)
		}
	}
	if c.SeekDuty {
		l.busy = func(comp disksim.Completion) float64 {
			if svc := comp.Finish - comp.Start; svc > 0 {
				return float64(comp.Parts.Seek) / float64(svc)
			}
			return 1
		}
	}
	if err := l.run(ctx, eng, src, sink, c.SampleEvery); err != nil {
		return Result{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = l.summary()
	return res, nil
}

// RunStream services requests pulled lazily from src under the slack-ramping
// policy, pushing completions to sink. The source must yield requests in
// nondecreasing arrival order (FCFS).
func (s *SlackRamp) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (RampResult, error) {
	return s.run(context.TODO(), eng, src, sink)
}

// RunStreamCtx is RunStream with cooperative cancellation.
func (s *SlackRamp) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (RampResult, error) {
	return s.run(ctx, eng, src, sink)
}

func (s *SlackRamp) run(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (RampResult, error) {
	if s.Disk == nil || s.Thermal == nil {
		return RampResult{}, fmt.Errorf("dtm: ramp needs a disk and a thermal model")
	}
	base := s.Disk.RPM()
	if s.BoostRPM <= base {
		return RampResult{}, fmt.Errorf("dtm: boost %v must exceed base %v", s.BoostRPM, base)
	}
	rampAt := s.RampAt
	if rampAt == 0 {
		rampAt = thermal.Envelope - 2
	}
	dropAt := s.DropAt
	if dropAt == 0 {
		dropAt = thermal.Envelope - 0.2
	}
	trans := spinOrDefault(s.SpinTransition)

	l := newLoop(s.Disk, s.Thermal, s.Initial, s.Ambient, s.Ins)
	l.over.limit = orEnvelope(s.OverAt)
	l.faults, l.graceful = s.Faults, true
	flaps := newFlapTracker(s.FlapWindow)
	var res RampResult
	boosted := false
	l.decide = func() {
		// Speed decisions happen between requests.
		switch air := l.air(); {
		case !boosted && air <= rampAt:
			boosted = true
			res.Transitions++
			flaps.engage(l.clock)
			l.shift(s.BoostRPM, trans)
		case boosted && air >= dropAt:
			boosted = false
			res.Transitions++
			l.shift(base, trans)
			flaps.release(l.clock)
		}
	}
	l.busy = func(comp disksim.Completion) float64 {
		if boosted {
			res.BoostedTime += comp.Finish - comp.Start
		}
		return 1
	}
	if err := l.run(ctx, eng, src, sink, s.SampleEvery); err != nil {
		return RampResult{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = l.summary()
	res.Flaps = flaps.flaps
	res.TimeOverThreshold = l.over.over
	res.Retries, res.Remaps, res.DiskFailed, res.FailedAt = l.faultOutcome()
	return res, nil
}

// RunStream services requests pulled lazily from src under the level-walking
// policy, pushing completions to sink. The source must yield requests in
// nondecreasing arrival order. The returned result's P95ResponseMillis is a
// P² estimate; Run reports the exact order statistic instead.
func (p *DRPM) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (DRPMResult, error) {
	return p.run(context.TODO(), eng, src, sink)
}

// RunStreamCtx is RunStream with cooperative cancellation.
func (p *DRPM) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (DRPMResult, error) {
	return p.run(ctx, eng, src, sink)
}

func (p *DRPM) run(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (DRPMResult, error) {
	if p.Disk == nil || p.Thermal == nil {
		return DRPMResult{}, fmt.Errorf("dtm: DRPM needs a disk and a thermal model")
	}
	if len(p.Levels) < 2 {
		return DRPMResult{}, fmt.Errorf("dtm: DRPM needs at least 2 levels, have %d", len(p.Levels))
	}
	levels := append([]units.RPM(nil), p.Levels...)
	sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
	level := -1
	for i, lv := range levels {
		if lv == p.Disk.RPM() {
			level = i
			break
		}
	}
	if level < 0 {
		return DRPMResult{}, fmt.Errorf("dtm: disk speed %v is not a configured level", p.Disk.RPM())
	}
	trans := spinOrDefault(p.Transition)

	l := newLoop(p.Disk, p.Thermal, p.Initial, p.Ambient, p.Ins)
	res := DRPMResult{TimeAtLevel: make(map[units.RPM]time.Duration, len(levels))}
	l.advanced = func(d time.Duration) { res.TimeAtLevel[l.rpm] += d }
	l.decide = func() {
		// Walk the ladder between requests.
		switch air := l.air(); {
		case air >= p.stepDownAt() && level > 0:
			level--
			res.Transitions++
			l.shift(levels[level], trans)
		case air <= p.stepUpBelow() && level < len(levels)-1:
			level++
			res.Transitions++
			l.shift(levels[level], trans)
		}
	}
	if err := l.run(ctx, eng, src, sink, p.SampleEvery); err != nil {
		return DRPMResult{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = l.summary()
	return res, nil
}

// RunStream services requests pulled lazily from src under the escalation
// ladder, pushing completions to sink. The source must yield requests in
// nondecreasing arrival order. A disk failure raised by the fault injector
// ends the stream gracefully (DiskFailed set, completions cover the
// requests before the failure), matching Run.
func (e *Escalation) RunStream(eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (EscalationResult, error) {
	return e.run(context.TODO(), eng, src, sink)
}

// RunStreamCtx is RunStream with cooperative cancellation.
func (e *Escalation) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (EscalationResult, error) {
	return e.run(ctx, eng, src, sink)
}

func (e *Escalation) run(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion]) (EscalationResult, error) {
	if e.Disk == nil || e.Thermal == nil {
		return EscalationResult{}, fmt.Errorf("dtm: escalation needs a disk and a thermal model")
	}
	levels := e.Levels
	if len(levels) == 0 {
		levels = []units.RPM{e.Disk.RPM()}
	}
	if levels[0] != e.Disk.RPM() {
		return EscalationResult{}, fmt.Errorf("dtm: level 0 (%v) must be the disk's service speed (%v)", levels[0], e.Disk.RPM())
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] >= levels[i-1] {
			return EscalationResult{}, fmt.Errorf("dtm: levels must descend, got %v after %v", levels[i], levels[i-1])
		}
	}
	stepEngage, stepRelease, thrEngage, thrRelease, offEngage, offRelease := e.stageLines()
	trans := spinOrDefault(e.SpinTransition)

	l := newLoop(e.Disk, e.Thermal, e.Initial, e.Ambient, e.Ins)
	l.over.limit = orEnvelope(e.OverAt)
	l.faults, l.graceful = e.Faults, true
	offLoad := thermal.Load{RPM: 0, VCMDuty: 0, Ambient: l.amb}
	fw := e.FlapWindow
	stepFlaps, thrFlaps, offFlaps := newFlapTracker(fw), newFlapTracker(fw), newFlapTracker(fw)
	var res EscalationResult
	level := 0 // index into levels
	l.decide = func() {
		// Escalate, hottest stage first; each stage leaves the drive cool
		// enough that the next check falls through. After a pause only the
		// over-threshold integral sees the cooled drive.
		air := l.air()
		if air >= offEngage {
			// Stage 3: spin down and go offline until cooled.
			res.Offlines++
			offFlaps.engage(l.clock)
			p := l.pause("dtm.offline", offLoad, offlineCoolLimit, offRelease, 2*trans) // spin-down and spin-up
			res.OfflineTime += p
			e.Ins.offline(p)
			air = l.air()
			l.over.observe(l.clock, air)
			offFlaps.release(l.clock)
		}
		if air >= thrEngage {
			// Stage 2: VCM-off throttling at the current spindle speed.
			res.Throttles++
			thrFlaps.engage(l.clock)
			p := l.pause("dtm.throttle", l.load(0), coolLimit, thrRelease, 0)
			res.ThrottledTime += p
			e.Ins.throttle(p)
			air = l.air()
			l.over.observe(l.clock, air)
			thrFlaps.release(l.clock)
		}
		switch {
		case air >= stepEngage && level < len(levels)-1:
			// Stage 1: one spindle step down.
			level++
			res.StepDowns++
			stepFlaps.engage(l.clock)
			l.shift(levels[level], trans)
		case air <= stepRelease && level > 0:
			// De-escalate one step once the drive has cooled.
			level--
			l.shift(levels[level], trans)
			stepFlaps.release(l.clock)
		}
	}
	if err := l.run(ctx, eng, src, sink, e.SampleEvery); err != nil {
		return EscalationResult{}, err
	}
	res.MeanResponseMillis, res.P95ResponseMillis, res.MaxAirTemp, res.Elapsed = l.summary()
	res.Flaps = stepFlaps.flaps + thrFlaps.flaps + offFlaps.flaps
	res.TimeOverThreshold = l.over.over
	res.Retries, res.Remaps, res.DiskFailed, res.FailedAt = l.faultOutcome()
	return res, nil
}
