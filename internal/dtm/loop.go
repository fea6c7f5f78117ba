// The co-simulation loop every streaming DTM controller runs. A controller
// is a decision made between requests on top of one shared simulation: the
// loop pulls requests lazily from a source, admits them as events on a
// (possibly shared) sim.Engine, serves them on the disk, and co-advances the
// drive's thermal transient with the disk clock — so a 10M-request replay
// runs in O(1) memory, and a controller can share one engine with other
// processes (a second volume, a fault timeline) on a single deterministic
// timeline.
//
// Each controller's Run method is the collect-into-slice wrapper over its
// RunStream; with SampleEvery left zero the two produce identical results.
// The streaming summaries use the O(1) accumulators in internal/stats:
// Running reproduces Sample's mean bit-for-bit (same additions, same order),
// while the 95th percentile is a P² estimate rather than the exact order
// statistic the batch wrappers report.
package dtm

import (
	"context"
	"errors"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// loop owns what the controllers share: the transient and its clock, the
// advance-then-observe sequence, cooling pauses and spindle-speed shifts,
// the sample tick, admission, fault binding, and the response summary. A
// controller supplies decide — its policy, run before each request is
// served — plus whichever of the optional hooks it needs.
type loop struct {
	disk *disksim.Disk
	ins  *Instruments
	amb  units.Celsius
	rpm  units.RPM // spindle speed the transient sees outside pauses

	tr    *thermal.Transient
	clock time.Duration // thermal clock, tracks disk time
	eng   *sim.Engine
	sink  sim.Sink[disksim.Completion]

	// decide runs between requests, after the drive has been advanced to
	// the service start and observed. It acts through pause and shift.
	decide func()
	// busy returns the VCM duty charged while serving c (nil: 1).
	busy func(c disksim.Completion) float64
	// advanced sees every interval the transient advances through at rpm.
	advanced func(d time.Duration)
	// observer sees every observation before the loop's own bookkeeping.
	observer func(at time.Duration, t units.Celsius)

	// faults, when set, is installed on the disk for the run with its
	// Temp bound to the transient. graceful makes ErrDiskFailed end the
	// stream with diskFailed set instead of failing the run.
	faults   *ThermalFaults
	graceful bool

	over overTracker
	maxT units.Celsius

	mean         stats.Running
	p95          *stats.P2
	firstArrival time.Duration
	lastFinish   time.Duration
	diskFailed   bool
	failed       bool
	done         bool
}

// newLoop starts a loop for disk at its current speed, with the drive
// soaked at ambient (0 = the default 28 C) unless initial is given.
func newLoop(disk *disksim.Disk, model *thermal.Model, initial *thermal.State, amb units.Celsius, ins *Instruments) *loop {
	if amb == 0 {
		amb = thermal.DefaultAmbient
	}
	start := thermal.Uniform(amb)
	if initial != nil {
		start = *initial
	}
	return &loop{
		disk: disk, ins: ins, amb: amb, rpm: disk.RPM(),
		tr:           model.NewTransient(start),
		over:         overTracker{limit: thermal.Envelope},
		maxT:         start.Air,
		p95:          stats.MustP2(0.95),
		firstArrival: -1,
	}
}

// orEnvelope resolves an unset (zero) threshold to thermal.Envelope.
func orEnvelope(t units.Celsius) units.Celsius {
	if t == 0 {
		return thermal.Envelope
	}
	return t
}

// load is the operating point at the current speed and the given duty.
func (l *loop) load(duty float64) thermal.Load {
	return thermal.Load{RPM: l.rpm, VCMDuty: duty, Ambient: l.amb}
}

// air is the current internal air temperature.
func (l *loop) air() units.Celsius { return l.tr.State().Air }

// advance integrates the transient up to disk time to.
func (l *loop) advance(to time.Duration, duty float64) {
	if to > l.clock {
		d := to - l.clock
		l.tr.Advance(l.load(duty), d)
		if l.advanced != nil {
			l.advanced(d)
		}
		l.clock = to
	}
}

// observe records one air-temperature observation at the current clock.
func (l *loop) observe() {
	t := l.air()
	if l.observer != nil {
		l.observer(l.clock, t)
	}
	l.over.observe(l.clock, t)
	l.ins.noteTemp(t)
	if t > l.maxT {
		l.maxT = t
	}
}

// pause cools the drive at load until the air falls to release (or limit
// passes), charges extra on top (spin transitions), records the episode as
// a span and holds the disk until the pause ends. It returns the pause.
func (l *loop) pause(span string, load thermal.Load, limit time.Duration, release units.Celsius, extra time.Duration) time.Duration {
	p, _ := l.tr.AdvanceUntil(load, limit, func(s thermal.State) bool { return s.Air <= release })
	p += extra
	l.clock += p
	throttleSpan(l.eng, span, l.clock-p, l.clock, l.air())
	l.disk.Delay(l.clock)
	return p
}

// shift changes the spindle speed. The transition adds time to the clock
// but does not advance the transient: the spin change is charged as disk
// time only, as the controllers always have.
func (l *loop) shift(rpm units.RPM, trans time.Duration) {
	l.clock += trans
	l.ins.transition()
	throttleSpan(l.eng, "dtm.rpm_transition", l.clock-trans, l.clock, l.air())
	l.disk.Delay(l.clock)
	if err := l.disk.SetRPM(rpm); err != nil {
		l.fail(err)
		return
	}
	l.rpm = rpm
}

func (l *loop) fail(err error) {
	l.failed = true
	l.eng.Fail(err)
}

func (l *loop) arrival(r disksim.Request) time.Duration {
	if l.firstArrival < 0 {
		l.firstArrival = r.Arrival
	}
	return r.Arrival
}

func (l *loop) serve(e *sim.Engine, r disksim.Request) bool {
	start := r.Arrival
	if rt := l.disk.ReadyTime(); rt > start {
		start = rt
	}
	// Idle (or queued-but-not-seeking) period up to the service start.
	l.advance(start, 0)
	l.observe()
	l.decide()
	if l.failed {
		return false
	}

	comp, err := l.disk.Serve(r)
	if err != nil {
		if l.graceful && errors.Is(err, disksim.ErrDiskFailed) {
			// The drive died mid-run: end the stream gracefully.
			l.diskFailed = true
			l.done = true
			return false
		}
		l.fail(err)
		return false
	}
	duty := 1.0
	if l.busy != nil {
		duty = l.busy(comp)
	}
	l.advance(comp.Finish, duty)
	l.observe()
	l.mean.Add(comp.Response())
	l.p95.Add(comp.Response())
	l.lastFinish = comp.Finish
	l.sink.Push(comp)
	return true
}

// run services requests pulled lazily from src (nondecreasing arrival
// order, FCFS) on eng, pushing each completion to sink. A positive sample
// adds a periodic tick that advances the transient through idle gaps and
// observes it. ctx gates admission: the run ends at the next admission once
// ctx is done, and reports ctx.Err(). One that never can be (RunStream
// passes context.TODO) adds no per-request check (see sim.Gate).
func (l *loop) run(ctx context.Context, eng *sim.Engine, src sim.Source[disksim.Request], sink sim.Sink[disksim.Completion], sample time.Duration) error {
	if eng == nil {
		eng = sim.NewEngine()
	}
	l.eng, l.sink = eng, sink
	src = sim.Gate(ctx, src)
	if f := l.faults; f != nil {
		f.Temp = func(time.Duration) units.Celsius { return l.air() }
		l.disk.SetFaults(f)
		defer l.disk.SetFaults(nil)
	}
	if sample > 0 {
		eng.Every(sample, sample, func(now time.Duration) bool {
			if l.done && eng.Pending() == 0 {
				return false
			}
			l.advance(now, 0)
			l.observe()
			return true
		})
	}
	sim.Chain(eng, src, l.arrival, l.serve, func() { l.done = true })
	if err := eng.Run(); err != nil {
		return err
	}
	return ctx.Err()
}

// faultOutcome reports the injected-fault outcomes: the disk's retries
// and remaps, and whether (and when) it died mid-run.
func (l *loop) faultOutcome() (retries, remaps int64, failed bool, at time.Duration) {
	if l.diskFailed {
		at = l.disk.FailedAt()
	}
	return l.disk.Retries(), l.disk.Remapped(), l.diskFailed, at
}

// summary returns the response mean and P² p95 in milliseconds, the peak
// air temperature, and the elapsed time from first arrival to last
// completion (zero when nothing completed).
func (l *loop) summary() (mean, p95 float64, maxT units.Celsius, elapsed time.Duration) {
	if l.mean.N() > 0 {
		elapsed = l.lastFinish - l.firstArrival
	}
	return l.mean.Mean(), l.p95.Value(), l.maxT, elapsed
}
