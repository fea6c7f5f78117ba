package dtm

import (
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// DRPM is a multi-speed policy in the style of the authors' earlier DRPM
// work (ISCA'03), which the paper cites as the enabling mechanism for
// full-granularity thermal control: the disk services requests at any of
// several speed levels, and the controller walks the level ladder — down
// when the internal air nears the envelope, up when thermal slack opens.
// Unlike the two-speed throttling of Figure 6(b), requests keep flowing at
// reduced speed instead of stopping entirely.
type DRPM struct {
	// Disk services the requests; its initial speed must be one of Levels.
	Disk *disksim.Disk

	// Thermal is the drive's thermal model.
	Thermal *thermal.Model

	// Levels are the available spindle speeds, any order (sorted on Run).
	Levels []units.RPM

	// StepUpBelow is the air temperature that allows a step up
	// (0 = envelope - 2).
	StepUpBelow units.Celsius

	// Initial optionally warm-starts the thermal state.
	Initial *thermal.State

	// SampleEvery, when positive, adds a periodic temperature-observation
	// tick on the event-engine clock during RunStream (zero = off).
	SampleEvery time.Duration

	// Ins is the optional metric handle set (NewInstruments); nil — the
	// default — keeps the control loop observation-free.
	Ins *Instruments
}

// DRPMResult summarises a run.
type DRPMResult struct {
	MeanResponseMillis float64
	P95ResponseMillis  float64
	MaxAirTemp         units.Celsius

	// Transitions counts level changes; TimeAtLevel maps each speed to
	// the busy+idle time spent there.
	Transitions int
	TimeAtLevel map[units.RPM]time.Duration

	// Elapsed is the simulated time from first arrival to last completion,
	// as in every controller's result.
	Elapsed time.Duration
}

// drpmStepDownAt is the air temperature that forces DRPM one level down.
const drpmStepDownAt = thermal.Envelope - 0.05

func (p *DRPM) stepUpBelow() units.Celsius {
	if p.StepUpBelow == 0 {
		return thermal.Envelope - 2
	}
	return p.StepUpBelow
}

// Run services requests (sorted by arrival) under the level-walking policy.
// It is the batch wrapper over RunStream, with the response percentile
// computed exactly from the retained responses rather than P²-estimated.
func (p *DRPM) Run(reqs []disksim.Request) (DRPMResult, error) {
	var sample stats.Sample
	res, err := p.RunStream(sim.NewEngine(), sim.FromSlice(reqs),
		sim.SinkFunc[disksim.Completion](func(c disksim.Completion) { sample.Add(c.Response()) }))
	if err != nil {
		return DRPMResult{}, err
	}
	res.MeanResponseMillis = sample.Mean()
	res.P95ResponseMillis = sample.Percentile(95)
	return res, nil
}
