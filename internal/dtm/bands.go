package dtm

import (
	"time"

	"repro/internal/units"
)

// Band is an engage/release hysteresis pair for one threshold stage,
// expressed as margins below the stage's limit temperature: the stage
// becomes eligible to engage once the air is within Engage degrees of the
// limit (air >= limit - Engage) and, once it has acted, cools the drive to
// Release degrees below the limit (air <= limit - Release) before normal
// operation resumes. Splitting the two lines — Release wider than Engage —
// is what keeps a stage from re-engaging the instant it lets go (the 3 °C
// re-arm idiom: alert at the threshold, suppress until well below it).
//
// The zero Band means "unset": each controller substitutes its own
// defaults, so existing configurations keep their historic behaviour
// bit-for-bit.
type Band struct {
	Engage  units.Celsius
	Release units.Celsius
}

// isZero reports an unset band.
func (b Band) isZero() bool { return b.Engage == 0 && b.Release == 0 }

// orDefault resolves an unset band against stage defaults. A band with only
// one margin set keeps the other default, so callers can widen just the
// release line.
func (b Band) orDefault(engage, release units.Celsius) Band {
	if b.Engage == 0 {
		b.Engage = engage
	}
	if b.Release == 0 {
		b.Release = release
	}
	return b
}

// engageAt is the temperature at which the stage engages.
func (b Band) engageAt(limit units.Celsius) units.Celsius { return limit - b.Engage }

// releaseAt is the temperature the stage cools the drive to before
// releasing.
func (b Band) releaseAt(limit units.Celsius) units.Celsius { return limit - b.Release }

// overTracker integrates the sim time a drive spends at or above a
// threshold temperature, from the discrete observations a controller
// already makes. Consecutive samples are joined by linear interpolation, so
// a segment that crosses the threshold contributes exactly the interpolated
// fraction above it. It is a pure observer: it never feeds back into
// control decisions, so wiring it into an existing controller cannot change
// that controller's output.
type overTracker struct {
	limit   units.Celsius
	started bool
	lastAt  time.Duration
	lastT   units.Celsius
	over    time.Duration
}

// observe records one (time, temperature) sample. Out-of-order or
// same-instant samples only refresh the latest temperature.
func (o *overTracker) observe(at time.Duration, t units.Celsius) {
	if !o.started {
		o.started, o.lastAt, o.lastT = true, at, t
		return
	}
	d := at - o.lastAt
	if d <= 0 {
		o.lastT = t
		return
	}
	a, b := float64(o.lastT), float64(t)
	lim := float64(o.limit)
	switch {
	case a >= lim && b >= lim:
		o.over += d
	case a < lim && b < lim:
		// Below throughout.
	case b >= lim:
		// Rising crossing: above for the trailing fraction.
		o.over += time.Duration((b - lim) / (b - a) * float64(d))
	default:
		// Falling crossing: above for the leading fraction.
		o.over += time.Duration((a - lim) / (a - b) * float64(d))
	}
	o.lastAt, o.lastT = at, t
}

// flapTracker counts stage engagements that land within a re-arm window of
// the same stage's previous release — the oscillation signature a shared
// hysteresis band produces when one stage's release line sits inside
// another stage's active region. One tracker per stage; flaps are a
// stability metric, never a control input.
type flapTracker struct {
	window      time.Duration
	seen        bool
	lastRelease time.Duration
	flaps       int
}

// newFlapTracker returns a tracker with the given re-arm window
// (0 = defaultFlapWindow).
func newFlapTracker(window time.Duration) flapTracker {
	if window == 0 {
		window = defaultFlapWindow
	}
	return flapTracker{window: window}
}

// engage marks a stage engagement at the given sim time.
func (f *flapTracker) engage(at time.Duration) {
	if f.seen && at-f.lastRelease <= f.window {
		f.flaps++
	}
}

// release marks the stage letting go at the given sim time.
func (f *flapTracker) release(at time.Duration) { f.seen, f.lastRelease = true, at }

// defaultFlapWindow is the re-arm window within which a fresh engagement
// counts as a flap: comfortably longer than a spin transition, far shorter
// than a deliberate cooling episode.
const defaultFlapWindow = 5 * time.Second
