package dtm

import (
	"repro/internal/thermal"
	"repro/internal/units"
)

// OffTrackModel turns temperature into an off-track-retry probability — the
// paper's motivating failure mechanism ("high temperatures can cause
// off-track errors due to thermal tilt of the disk stack and actuator") made
// operational. At or below the envelope the probability is zero; above it,
// it rises linearly to MaxProb at Envelope+Span as the stack's thermal tilt
// eats the track misregistration budget.
type OffTrackModel struct {
	// Envelope is the onset temperature (0 = thermal.Envelope).
	Envelope units.Celsius

	// Span is the temperature rise over which the probability saturates
	// (0 = 10 C).
	Span units.Celsius

	// MaxProb is the saturated per-access retry probability (0 = 0.25).
	MaxProb float64
}

func (m OffTrackModel) envelope() units.Celsius {
	if m.Envelope == 0 {
		return thermal.Envelope
	}
	return m.Envelope
}

func (m OffTrackModel) span() units.Celsius {
	if m.Span == 0 {
		return 10
	}
	return m.Span
}

func (m OffTrackModel) maxProb() float64 {
	if m.MaxProb == 0 {
		return 0.25
	}
	return m.MaxProb
}

// ProbAt returns the per-access retry probability at a temperature.
func (m OffTrackModel) ProbAt(t units.Celsius) float64 {
	over := float64(t - m.envelope())
	if over <= 0 {
		return 0
	}
	f := over / float64(m.span())
	if f > 1 {
		f = 1
	}
	return f * m.maxProb()
}
