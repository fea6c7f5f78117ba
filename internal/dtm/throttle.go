package dtm

import (
	"fmt"
	"time"

	"repro/internal/geometry"
	"repro/internal/thermal"
	"repro/internal/units"
)

// ThrottleMode selects what the throttling mechanism turns off when the
// drive approaches the envelope (the paper's Figure 6 scenarios).
type ThrottleMode int

// Supported modes.
const (
	// VCMOnly stops issuing requests (VCM off) while the spindle keeps
	// full speed — Figure 6(a). Viable when the VCM-off temperature is
	// below the envelope.
	VCMOnly ThrottleMode = iota
	// VCMAndRPM stops requests and drops to a lower spindle speed —
	// Figure 6(b), for drives so fast that even VCM-off operation exceeds
	// the envelope. Requests are always serviced at the high speed.
	VCMAndRPM
)

// String implements fmt.Stringer.
func (m ThrottleMode) String() string {
	switch m {
	case VCMOnly:
		return "VCM-only"
	case VCMAndRPM:
		return "VCM+RPM"
	default:
		return fmt.Sprintf("ThrottleMode(%d)", int(m))
	}
}

// ThrottleExperiment reproduces the paper's Figure 7 measurement: a drive
// designed for average-case behaviour runs at a speed whose worst case
// violates the envelope; starting from the envelope, the VCM (and in
// VCMAndRPM mode the spindle) is throttled for t_cool, then full activity
// resumes and t_heat — the time until the envelope is hit again — is
// measured. The throttling ratio is t_heat / t_cool.
type ThrottleExperiment struct {
	// Drive is the geometry (the paper uses a single 2.6" platter).
	Drive geometry.Drive

	// RPM is the operating (service) speed: 24,534 in Figure 7(a),
	// 37,001 in Figure 7(b).
	RPM units.RPM

	// LowRPM is the cool-down speed for VCMAndRPM (22,001 in the paper).
	LowRPM units.RPM

	// Mode selects the mechanism.
	Mode ThrottleMode
}

// coolLoad is the thermal operating point during throttling.
func (e ThrottleExperiment) coolLoad() thermal.Load {
	l := thermal.Load{RPM: e.RPM, VCMDuty: 0, Ambient: thermal.DefaultAmbient}
	if e.Mode == VCMAndRPM {
		l.RPM = e.LowRPM
	}
	return l
}

// hotLoad is the full-activity operating point.
func (e ThrottleExperiment) hotLoad() thermal.Load {
	return thermal.Load{RPM: e.RPM, VCMDuty: 1, Ambient: thermal.DefaultAmbient}
}

// Validate reports whether the experiment is meaningful: full activity must
// exceed the envelope (otherwise no throttling is ever needed) and the
// cool-down state must fall below it (otherwise throttling cannot help).
func (e ThrottleExperiment) Validate() error {
	m, err := thermal.New(e.Drive)
	if err != nil {
		return err
	}
	if e.Mode == VCMAndRPM && (e.LowRPM <= 0 || e.LowRPM >= e.RPM) {
		return fmt.Errorf("dtm: low speed %v must be below operating speed %v", e.LowRPM, e.RPM)
	}
	const env = float64(thermal.Envelope)
	if hot := float64(m.SteadyState(e.hotLoad()).Air); hot <= env {
		return fmt.Errorf("dtm: full activity steady state %.2f C within envelope %.2f C; nothing to throttle", hot, env)
	}
	if cool := float64(m.SteadyState(e.coolLoad()).Air); cool >= env {
		return fmt.Errorf("dtm: cool-down steady state %.2f C above envelope %.2f C; throttling cannot help", cool, env)
	}
	return nil
}

// RatioPoint is one point of a Figure 7 curve.
type RatioPoint struct {
	TCool time.Duration
	THeat time.Duration
	Ratio float64
}

// heatLimit caps the heat phase; if the envelope is not reached by then the
// drive effectively never needs throttling at this t_cool.
const heatLimit = time.Hour

// Ratio measures t_heat for one t_cool and returns the throttling ratio.
func (e ThrottleExperiment) Ratio(tcool time.Duration) (RatioPoint, error) {
	if tcool <= 0 {
		return RatioPoint{}, fmt.Errorf("dtm: non-positive t_cool %v", tcool)
	}
	if err := e.Validate(); err != nil {
		return RatioPoint{}, err
	}
	m, err := thermal.New(e.Drive)
	if err != nil {
		return RatioPoint{}, err
	}
	atEnvelope := func(s thermal.State) bool { return s.Air >= thermal.Envelope }

	// Start from the envelope, as the paper does: heat the drive from the
	// cool-load steady state under full activity until the air first
	// touches the envelope. That crossing state is the experiment's
	// well-defined "initial temperature set to the thermal envelope".
	tr := m.NewTransient(m.SteadyState(e.coolLoad()))
	if _, ok := tr.AdvanceUntil(e.hotLoad(), heatLimit, atEnvelope); !ok {
		return RatioPoint{}, fmt.Errorf("dtm: drive never reached the envelope while heating")
	}

	// One cool + heat cycle, per the paper's single-shot procedure.
	pt := RatioPoint{TCool: tcool}
	tr.Advance(e.coolLoad(), tcool)
	theat, reached := tr.AdvanceUntil(e.hotLoad(), heatLimit, atEnvelope)
	if !reached {
		theat = heatLimit
	}
	pt.THeat = theat
	pt.Ratio = float64(pt.THeat) / float64(tcool)
	return pt, nil
}

// Sweep evaluates the ratio across a set of cooling intervals (Figure 7 uses
// t_cool from a fraction of a second to eight seconds).
func (e ThrottleExperiment) Sweep(tcools []time.Duration) ([]RatioPoint, error) {
	out := make([]RatioPoint, 0, len(tcools))
	for _, tc := range tcools {
		pt, err := e.Ratio(tc)
		if err != nil {
			return nil, err
		}
		out = append(out, pt)
	}
	return out, nil
}

// Figure7a returns the paper's first throttling scenario: the 2.6" drive at
// 24,534 RPM (the speed the 2005 IDR target needs), VCM-only throttling.
func Figure7a() ThrottleExperiment {
	return ThrottleExperiment{
		Drive: thermal.ReferenceDrive,
		RPM:   24534,
		Mode:  VCMOnly,
	}
}

// Figure7b returns the second scenario: 37,001 RPM (the 2007 target) with a
// 22,001 RPM cool-down speed — dual-speed throttling.
func Figure7b() ThrottleExperiment {
	return ThrottleExperiment{
		Drive:  thermal.ReferenceDrive,
		RPM:    37001,
		LowRPM: 22001,
		Mode:   VCMAndRPM,
	}
}

// DefaultTCools is the Figure 7 sweep grid.
func DefaultTCools() []time.Duration {
	out := make([]time.Duration, 0, 16)
	for ms := 500; ms <= 8000; ms += 500 {
		out = append(out, time.Duration(ms)*time.Millisecond)
	}
	return out
}
