package dtm

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/disksim"
	"repro/internal/reliability"
	"repro/internal/units"
)

// ThermalFaults is the canonical disksim.FaultInjector: it turns the drive's
// current temperature into per-access fault decisions, wiring the paper's
// two thermal failure mechanisms into the service path. Off-track retries
// are drawn from OffTrackModel (thermal tilt of the disk stack and actuator
// eats the track-misregistration budget); whole-disk failures are drawn from
// the reliability doubling law ("even a fifteen degree Celsius rise from the
// ambient temperature can double the failure rate") as a temperature-
// weighted hazard over the operating time between accesses.
//
// All randomness comes from one explicitly seeded *rand.Rand, so a run is
// bit-for-bit reproducible: same seed, same trace, same decisions. Use one
// injector per disk.
type ThermalFaults struct {
	// OffTrack maps temperature to a per-access retry probability.
	OffTrack OffTrackModel

	// Reliability maps temperature to a failure rate.
	Reliability reliability.Model

	// Temp reads the drive's current internal air temperature; the DTM
	// controllers bind it to their thermal transient.
	Temp func(now time.Duration) units.Celsius

	// Rand is the injector's private, explicitly seeded randomness source.
	Rand *rand.Rand

	// TimeAcceleration scales wall-clock exposure when drawing failures,
	// so short simulations can observe events whose natural timescale is
	// months (0 = 1, the physical rate).
	TimeAcceleration float64

	lastAccess time.Duration
	started    bool
}

// NewThermalFaults builds an injector with an explicit seed.
func NewThermalFaults(off OffTrackModel, rel reliability.Model, temp func(time.Duration) units.Celsius, seed int64) *ThermalFaults {
	return &ThermalFaults{
		OffTrack:    off,
		Reliability: rel,
		Temp:        temp,
		Rand:        rand.New(rand.NewSource(seed)),
	}
}

// maxRetries is how many consecutive off-track retries the firmware
// attempts before declaring the sector unrecoverable.
const maxRetries = 4

func (f *ThermalFaults) accel() float64 {
	if f.TimeAcceleration == 0 {
		return 1
	}
	return f.TimeAcceleration
}

// Access implements disksim.FaultInjector. The retry count is the run
// length of successive off-track draws at the current temperature's
// probability; a run that exhausts maxRetries and would go off-track once
// more is an unrecoverable sector. Disk failure is drawn from the
// accelerated hazard accumulated since the previous access.
func (f *ThermalFaults) Access(now time.Duration, _ disksim.Request) disksim.AccessFault {
	t := f.Temp(now)

	var out disksim.AccessFault
	if f.started && now > f.lastAccess {
		exposure := time.Duration(float64(now-f.lastAccess) * f.accel())
		if p := f.Reliability.FailureProb(t, exposure); p > 0 && f.Rand.Float64() < p {
			out.DiskFailure = true
		}
	}
	f.lastAccess = now
	f.started = true
	if out.DiskFailure {
		return out
	}

	p := f.OffTrack.ProbAt(t)
	for out.Retries < maxRetries && f.Rand.Float64() < p {
		out.Retries++
	}
	if out.Retries == maxRetries && f.Rand.Float64() < p {
		out.Unrecoverable = true
	}
	return out
}

// BindSteady wires the injector to a constant temperature — for open-loop
// studies without a thermal transient.
func BindSteady(t units.Celsius) func(time.Duration) units.Celsius {
	return func(time.Duration) units.Celsius { return t }
}

// String summarises the injector configuration.
func (f *ThermalFaults) String() string {
	return fmt.Sprintf("ThermalFaults{maxRetries=%d accel=%.0fx}", maxRetries, f.accel())
}
