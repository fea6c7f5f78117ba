package dtm

import (
	"repro/internal/thermal"
	"repro/internal/units"
)

// OffTrackModel turns temperature into an off-track-retry probability — the
// paper's motivating failure mechanism ("high temperatures can cause
// off-track errors due to thermal tilt of the disk stack and actuator") made
// operational. At or below the envelope the probability is zero; above it,
// it rises linearly to offTrackMaxProb at Envelope+offTrackSpan as the
// stack's thermal tilt eats the track misregistration budget.
type OffTrackModel struct {
	// Envelope is the onset temperature (0 = thermal.Envelope).
	Envelope units.Celsius
}

const (
	// offTrackSpan is the temperature rise over which the retry
	// probability saturates.
	offTrackSpan units.Celsius = 10

	// offTrackMaxProb is the saturated per-access retry probability.
	offTrackMaxProb = 0.25
)

func (m OffTrackModel) envelope() units.Celsius {
	if m.Envelope == 0 {
		return thermal.Envelope
	}
	return m.Envelope
}

// ProbAt returns the per-access retry probability at a temperature.
func (m OffTrackModel) ProbAt(t units.Celsius) float64 {
	over := float64(t - m.envelope())
	if over <= 0 {
		return 0
	}
	f := over / float64(offTrackSpan)
	if f > 1 {
		f = 1
	}
	return f * offTrackMaxProb
}
