package dtm

import (
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Controller is a closed-loop DTM policy coupling one disk's request stream
// to its thermal transient — the control layer the paper's section 5.4
// sketches as future work. The disk runs at an average-case speed whose
// worst case violates the envelope; the controller watches the internal air
// temperature and gates request admission (and optionally drops the spindle
// speed) whenever the drive approaches the envelope.
type Controller struct {
	// Disk services the requests. Its RPM is the high (service) speed.
	Disk *disksim.Disk

	// Thermal is the drive's thermal model.
	Thermal *thermal.Model

	// Mode selects VCM-only or dual-speed throttling.
	Mode ThrottleMode

	// LowRPM is the cool-down speed for VCMAndRPM.
	LowRPM units.RPM

	// Initial optionally sets the starting thermal state (nil = the drive
	// soaked at ambient). Warm starts model a drive that has already been
	// under load when the measured interval begins.
	Initial *thermal.State

	// SeekDuty, when set, charges the VCM only for each request's actual
	// seek time instead of the whole service time. The default (false) is
	// conservative: the thermal controller sees the worst-case duty the
	// envelope is defined against.
	SeekDuty bool

	// SampleEvery, when positive, adds a periodic temperature-observation
	// tick on the event-engine clock during RunStream: the thermal
	// transient advances through idle gaps in sample-sized steps and
	// MaxAirTemp reflects those observations. Zero (the default) keeps
	// runs bit-identical to the batch path.
	SampleEvery time.Duration

	// Ins is the optional metric handle set (NewInstruments); nil — the
	// default — keeps the control loop observation-free.
	Ins *Instruments
}

// Result summarises a controlled run.
type Result struct {
	// Completions per request, in service order.
	Completions []disksim.Completion

	// MeanResponseMillis and P95ResponseMillis summarise response times.
	MeanResponseMillis float64
	P95ResponseMillis  float64

	// MaxAirTemp is the hottest internal air temperature observed.
	MaxAirTemp units.Celsius

	// ThrottleEvents counts cooling pauses; ThrottledTime is their total
	// duration.
	ThrottleEvents int
	ThrottledTime  time.Duration

	// Elapsed is the simulated time from first arrival to last completion.
	Elapsed time.Duration
}

// The watermark Controller's lines: it begins throttling guard below
// thermal.Envelope and resumes requests once the drive has cooled to
// hysteresis below it.
const (
	guard      units.Celsius = 0.05
	hysteresis units.Celsius = 0.5
)

// coolLimit caps one cooling pause.
const coolLimit = 10 * time.Minute

// Run services the requests (which must be sorted by arrival; FCFS) under
// the thermal policy, starting from the drive soaked at ambient. It is the
// collect-into-slice wrapper over RunStream, with the response percentile
// computed exactly from the retained completions rather than P²-estimated.
func (c *Controller) Run(reqs []disksim.Request) (Result, error) {
	var collect sim.Appender[disksim.Completion]
	res, err := c.RunStream(sim.NewEngine(), sim.FromSlice(reqs), &collect)
	if err != nil {
		return Result{}, err
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

// SlackRamp is the first DTM mechanism (section 5.2) as a closed-loop
// policy: a two-speed disk runs at its envelope-design speed and ramps to a
// higher speed whenever the measured temperature leaves enough slack,
// dropping back as the envelope nears.
type SlackRamp struct {
	// Disk services requests; its initial speed is the base speed.
	Disk *disksim.Disk

	// Thermal is the drive's thermal model.
	Thermal *thermal.Model

	// BoostRPM is the higher of the two speeds.
	BoostRPM units.RPM

	// RampAt is the temperature below which the controller boosts
	// (default envelope - 2 C).
	RampAt units.Celsius

	// DropAt is the temperature at which it falls back
	// (default envelope - 0.2 C).
	DropAt units.Celsius

	// Initial optionally warm-starts the thermal state (nil = the drive
	// soaked at ambient).
	Initial *thermal.State

	// FlapWindow is the re-arm window within which a boost counts as a
	// flap when it follows the previous drop that closely (0 = 5 s).
	FlapWindow time.Duration

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

// RampResult summarises a slack-ramp run.
type RampResult struct {
	MeanResponseMillis float64

	// P95ResponseMillis is a streaming P² estimate (both Run and RunStream;
	// the ramp keeps no completion slice).
	P95ResponseMillis float64

	MaxAirTemp  units.Celsius
	BoostedTime time.Duration
	Transitions int

	// Flaps counts boosts landing within FlapWindow of the previous drop;
	// TimeOverThreshold integrates sim time at or above thermal.Envelope.
	Flaps             int
	TimeOverThreshold time.Duration

	// Retries and Remaps are the injected-fault outcomes (zero without an
	// injector); DiskFailed/FailedAt mirror Escalation's graceful death.
	Retries, Remaps int64
	DiskFailed      bool
	FailedAt        time.Duration

	Elapsed time.Duration
}

// Run services the requests under the slack-ramping policy. It is the batch
// wrapper over RunStream (the running mean reproduces the batch mean
// exactly: same additions in the same order).
func (s *SlackRamp) Run(reqs []disksim.Request) (RampResult, error) {
	return s.RunStream(sim.NewEngine(), sim.FromSlice(reqs), sim.Discard[disksim.Completion]())
}
