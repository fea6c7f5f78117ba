package dtm

import (
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// Instruments is the DTM layer's metric handle set, shared by all five
// controllers: the internal-air-temperature gauge the policies regulate,
// its peak, and the counters for each control action (throttle episodes and
// their accumulated pause time, spindle-speed transitions, emergency
// stage engagements). Controllers carry a nil *Instruments by default, and
// every hook below is a single nil branch then — the disabled path costs
// nothing and allocates nothing.
type Instruments struct {
	airTemp     *obs.Gauge   // current internal air temperature, C
	maxAirTemp  *obs.Gauge   // peak air temperature (order-free Max)
	throttles   *obs.Counter // throttle episodes entered
	throttledNs *obs.Counter // accumulated throttle pause, ns
	transitions *obs.Counter // spindle-speed transitions (ramp/DRPM/steps)
	offlines    *obs.Counter // emergency stage-3 spin-downs

	earlyThrottles  *obs.Counter // predictive-stage pauses (before the limit)
	predErrSamples  *obs.Counter // one-step-ahead extrapolations scored
	predErrMilliC   *obs.Counter // accumulated |prediction error|, milli-°C
	predErrPeakMilC *obs.Gauge   // worst |prediction error| seen, milli-°C
}

// NewInstruments registers the DTM metric set on reg, labelled with the
// controlling policy plus any extra alternating key/value labels. A nil
// registry returns nil — the disabled state.
func NewInstruments(reg *obs.Registry, policy string, labels ...string) *Instruments {
	if reg == nil {
		return nil
	}
	l := append([]string{"policy", policy}, labels...)
	return &Instruments{
		airTemp:     reg.Gauge("dtm_air_temp_celsius", l...),
		maxAirTemp:  reg.Gauge("dtm_air_temp_peak_celsius", l...),
		throttles:   reg.Counter("dtm_throttle_events_total", l...),
		throttledNs: reg.Counter("dtm_throttled_ns_total", l...),
		transitions: reg.Counter("dtm_rpm_transitions_total", l...),
		offlines:    reg.Counter("dtm_offline_events_total", l...),

		earlyThrottles:  reg.Counter("dtm_predictive_early_throttles_total", l...),
		predErrSamples:  reg.Counter("dtm_prediction_error_samples_total", l...),
		predErrMilliC:   reg.Counter("dtm_prediction_abs_error_millicelsius_total", l...),
		predErrPeakMilC: reg.Gauge("dtm_prediction_abs_error_peak_millicelsius", l...),
	}
}

// noteTemp tracks the air temperature (last value and peak).
func (ins *Instruments) noteTemp(t units.Celsius) {
	if ins == nil {
		return
	}
	ins.airTemp.Set(float64(t))
	ins.maxAirTemp.Max(float64(t))
}

// throttle counts one throttle episode of the given pause length.
func (ins *Instruments) throttle(pause time.Duration) {
	if ins == nil {
		return
	}
	ins.throttles.Inc()
	ins.throttledNs.AddDuration(pause)
}

// transition counts one spindle-speed change.
func (ins *Instruments) transition() {
	if ins == nil {
		return
	}
	ins.transitions.Inc()
}

// offline counts one emergency spin-down of the given length.
func (ins *Instruments) offline(pause time.Duration) {
	if ins == nil {
		return
	}
	ins.offlines.Inc()
	ins.throttledNs.AddDuration(pause)
}

// earlyThrottle counts one predictive-stage pause of the given length. The
// pause time folds into the shared throttled-ns total so the combined
// counter stays comparable across policies.
func (ins *Instruments) earlyThrottle(pause time.Duration) {
	if ins == nil {
		return
	}
	ins.earlyThrottles.Inc()
	ins.throttledNs.AddDuration(pause)
}

// predictionError scores one one-step-ahead extrapolation against the
// measured temperature. The absolute error accumulates in milli-°C (mean =
// total / samples); the gauge tracks the worst single miss.
func (ins *Instruments) predictionError(absErrC float64) {
	if ins == nil {
		return
	}
	m := int64(absErrC * 1000)
	ins.predErrSamples.Inc()
	ins.predErrMilliC.Add(m)
	ins.predErrPeakMilC.Max(float64(m))
}

// throttleSpan emits a DTM control-episode span (throttle pause, offline
// window, or RPM transition) when the engine has a tracer attached.
func throttleSpan(eng *sim.Engine, name string, start, end time.Duration, air units.Celsius) {
	if eng == nil {
		return
	}
	t := eng.Tracer()
	if t == nil {
		return
	}
	t.Record(obs.Span{
		Name:  name,
		Start: start,
		End:   end,
		Attrs: []obs.Attr{obs.AttrFloat("air_c", float64(air))},
	})
}
