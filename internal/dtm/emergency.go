package dtm

import (
	"fmt"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// EmergencyStage is a rung of the thermal-emergency escalation ladder.
type EmergencyStage int

// The ladder, mildest first. Each stage engages at a higher temperature:
// first the spindle steps down a level (RPM step-down costs throughput but
// keeps serving), then request admission pauses entirely (VCM-off
// throttling, Figure 6(a)), and finally the drive spins down and goes
// offline until it has cooled — the last resort that trades availability
// for the drive's life, per the paper's concluding remark that DTM can be
// used purely to lower temperature and extend life.
const (
	StageNormal EmergencyStage = iota
	StageRPMStep
	StageThrottle
	StageOffline
)

// String implements fmt.Stringer.
func (s EmergencyStage) String() string {
	switch s {
	case StageNormal:
		return "normal"
	case StageRPMStep:
		return "rpm-step"
	case StageThrottle:
		return "throttle"
	case StageOffline:
		return "offline"
	default:
		return fmt.Sprintf("EmergencyStage(%d)", int(s))
	}
}

// Escalation is the closed-loop emergency controller: a drive running
// beyond its envelope-design speed serviced under a three-stage ladder,
// with (optionally) the thermal fault injector wired to the same transient
// so injected off-track errors and the policy that prevents them interact.
type Escalation struct {
	// Disk services the requests; its initial RPM is the service speed.
	Disk *disksim.Disk

	// Thermal is the drive's thermal model.
	Thermal *thermal.Model

	// Levels are the spindle speeds available to stage 1, descending from
	// the service speed (e.g. 24534, 21000, 18000). The first entry must
	// be the disk's initial RPM.
	Levels []units.RPM

	// ThrottleAt and OfflineAt are the onset temperatures of stages 2 and
	// 3 (0 = envelope+2, envelope+5). Stage 1 sets in at thermal.Envelope.
	ThrottleAt, OfflineAt units.Celsius

	// Hysteresis is how far the drive must cool below a stage's onset
	// before the controller de-escalates past it (0 = 1 C). It is the
	// shared fallback band; the per-stage Bands below override it.
	Hysteresis units.Celsius

	// StepBand, ThrottleBand and OfflineBand optionally give each stage its
	// own engage/release margins below that stage's onset temperature, so
	// the rungs re-arm independently instead of sharing one Hysteresis
	// line. A zero band keeps the historic behaviour for that stage:
	// engage exactly at onset, release Hysteresis below it (the offline
	// stage's historic release is thermal.Envelope - Hysteresis, deep
	// enough to walk back down the whole ladder).
	StepBand, ThrottleBand, OfflineBand Band

	// OverAt is the threshold the TimeOverThreshold integral measures
	// against (0 = thermal.Envelope).
	OverAt units.Celsius

	// Initial optionally warm-starts the thermal state.
	Initial *thermal.State

	// Faults, when non-nil, is installed on the disk with its Temp bound
	// to the run's transient — the injected off-track errors then rise
	// and fall with the very temperature the ladder is regulating.
	Faults *ThermalFaults

	// SampleEvery, when positive, adds a periodic temperature-observation
	// tick on the event-engine clock during RunStream (zero = off).
	SampleEvery time.Duration

	// Ins is the optional metric handle set (NewInstruments); nil — the
	// default — keeps the control loop observation-free.
	Ins *Instruments
}

// EscalationResult summarises a run.
type EscalationResult struct {
	Completions []disksim.Completion

	MeanResponseMillis float64
	P95ResponseMillis  float64
	MaxAirTemp         units.Celsius

	// StepDowns, Throttles and Offlines count stage engagements;
	// ThrottledTime and OfflineTime are the paused durations.
	StepDowns, Throttles, Offlines int
	ThrottledTime, OfflineTime     time.Duration

	// Flaps counts stage engagements within 5 s of the same stage's
	// previous release; TimeOverThreshold integrates sim time spent at or
	// above OverAt. Both are pure observations of the existing control
	// loop.
	Flaps             int
	TimeOverThreshold time.Duration

	// Retries and Remaps are the injected-fault outcomes (zero without an
	// injector). DiskFailed is set if the drive died mid-run; the
	// completions then cover only the requests before the failure.
	Retries, Remaps int64
	DiskFailed      bool
	FailedAt        time.Duration

	Elapsed time.Duration
}

func (e *Escalation) stageTemps() (step, throttle, offline units.Celsius) {
	step, throttle, offline = thermal.Envelope, e.ThrottleAt, e.OfflineAt
	if throttle == 0 {
		throttle = thermal.Envelope + 2
	}
	if offline == 0 {
		offline = thermal.Envelope + 5
	}
	return step, throttle, offline
}

func (e *Escalation) hysteresis() units.Celsius {
	if e.Hysteresis == 0 {
		return 1
	}
	return e.Hysteresis
}

// stageLines resolves each stage's engage and release temperatures from the
// per-stage bands, falling back to the shared hysteresis where a band is
// unset. Defaults reproduce the historic single-band ladder exactly:
// engage at stage onset, release Hysteresis below it — except the offline
// stage, whose historic release line is the step stage's onset less
// Hysteresis (cool enough to walk back down the whole ladder in one
// excursion).
func (e *Escalation) stageLines() (stepEngage, stepRelease, thrEngage, thrRelease, offEngage, offRelease units.Celsius) {
	stepAt, throttleAt, offlineAt := e.stageTemps()
	hys := e.hysteresis()

	sb := e.StepBand
	if sb.isZero() {
		sb = Band{Release: hys}
	}
	tb := e.ThrottleBand
	if tb.isZero() {
		tb = Band{Release: hys}
	}
	stepEngage, stepRelease = sb.engageAt(stepAt), sb.releaseAt(stepAt)
	thrEngage, thrRelease = tb.engageAt(throttleAt), tb.releaseAt(throttleAt)
	if ob := e.OfflineBand; ob.isZero() {
		offEngage, offRelease = offlineAt, stepAt-hys
	} else {
		offEngage, offRelease = ob.engageAt(offlineAt), ob.releaseAt(offlineAt)
	}
	return
}

// offlineCoolLimit caps one spin-down cooling excursion.
const offlineCoolLimit = 30 * time.Minute

// Run services the requests (sorted by arrival, FCFS) under the ladder. It
// is the collect-into-slice wrapper over RunStream, with the response
// percentile computed exactly from the retained completions rather than
// P²-estimated.
func (e *Escalation) Run(reqs []disksim.Request) (EscalationResult, error) {
	var collect sim.Appender[disksim.Completion]
	res, err := e.RunStream(sim.NewEngine(), sim.FromSlice(reqs), &collect)
	if err != nil {
		return EscalationResult{}, err
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
