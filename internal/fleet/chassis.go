package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/disksim"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// Per-drive DTM constants, matching the dtm controllers' discipline.
const (
	// guardBand below the envelope triggers a VCM-off throttle.
	guardBand units.Celsius = 0.05

	// resumeHysteresis below the envelope is where a throttle releases.
	resumeHysteresis units.Celsius = 0.5

	// violationReset below the envelope closes an open violation episode,
	// so one excursion counts once rather than per-request.
	violationReset units.Celsius = 0.25

	// coolLimit caps a single throttle pause; under a cooling failure the
	// local ambient can sit above the resume point, where an uncapped wait
	// would never return.
	coolLimit = 30 * time.Minute

	// requestSectors and writeFraction shape the synthetic streams, same
	// as dtm.SyntheticSource.
	requestSectors = 8
	writeFraction  = 0.3

	// cancelStride is how many completions pass between context checks.
	cancelStride = 256
)

// chassisResult is one shard's contribution to the fleet aggregates.
// Everything in it merges exactly or in fixed order, so the reduction is
// independent of which worker produced it when.
type chassisResult struct {
	rack  int
	index int

	requests       int64
	latency        stats.Running
	latencyBuckets *stats.BucketCounts
	tempBuckets    *stats.BucketCounts // per-drive max internal air
	exposure       *reliability.Exposure

	hottest        units.Celsius // max internal air across the chassis
	violations     int64         // envelope-violation episodes
	throttleEvents int64
	throttledTime  time.Duration
	migrations     int64
}

// draw is one request of a drive stream before it lands on a slot: its LBN
// is a fraction of whichever drive serves it.
type draw struct {
	id      int64
	arrival time.Duration
	frac    float64
	write   bool
}

func (q draw) at() time.Duration { return q.arrival }

// fleetDrive is one slot's live state during a chassis simulation.
type fleetDrive struct {
	gen   *Generation
	disk  *disksim.Disk
	tr    *thermal.Transient
	clock time.Duration // thermal clock, tracks disk time

	base        units.Celsius // design ambient under normal cooling
	air         units.Celsius // last observed internal air
	maxAir      units.Celsius
	inViolation bool
}

// runChassis simulates one chassis end to end on its own engine: every
// slot's drive co-advances a thermal transient with its disk clock, a
// per-drive throttle guards the envelope, and (when enabled) the
// temperature-threshold migration policy moves streams between slots. All
// coupling stays inside the chassis, which is what makes the chassis the
// determinism shard: its result depends only on (cfg, its slots' streams).
func runChassis(ctx context.Context, cfg Config, env chassisEnv, streamOn []int, streams []streamSpec) (*chassisResult, error) {
	res := &chassisResult{
		rack:           env.rack,
		index:          env.index,
		latencyBuckets: stats.NewBucketCounts(LatencyEdges()),
		tempBuckets:    stats.NewBucketCounts(TempEdges()),
		exposure:       reliability.NewExposure(reliability.Default()),
	}

	n := len(env.gens)
	drives := make([]*fleetDrive, n)
	for s := 0; s < n; s++ {
		g := env.gens[s]
		disk, err := disksim.New(disksim.Config{Layout: g.Layout, RPM: g.RPM})
		if err != nil {
			return nil, fmt.Errorf("fleet: chassis %d slot %d: %w", env.index, s, err)
		}
		base := env.ambients[s]
		drives[s] = &fleetDrive{
			gen:    g,
			disk:   disk,
			tr:     g.Thermal.NewTransient(thermal.Uniform(base)),
			base:   base,
			air:    base,
			maxAir: base,
		}
	}

	failure := cfg.Scenario.CoolingFailure
	if !failure.affects(env.rack) {
		failure = nil
	}

	// ambientAt is the slot's local ambient on the sim clock: the static
	// design-point preheat plus the cooling-failure delta when active.
	ambientAt := func(d *fleetDrive, t time.Duration) units.Celsius {
		if failure.active(env.rack, t) {
			return d.base + failure.DeltaC
		}
		return d.base
	}

	// note observes a drive's internal air: max tracking, violation
	// episodes, and the last-seen temperature migration decisions read.
	note := func(d *fleetDrive) {
		air := d.tr.State().Air
		d.air = air
		if air > d.maxAir {
			d.maxAir = air
		}
		if air > res.hottest {
			res.hottest = air
		}
		switch {
		case air > thermal.Envelope && !d.inViolation:
			d.inViolation = true
			res.violations++
		case d.inViolation && air <= thermal.Envelope-violationReset:
			d.inViolation = false
		}
	}

	// advance integrates a drive's transient to the target time, splitting
	// the step at the cooling-failure boundaries so each segment sees its
	// own ambient, and charging the segment to the drive's thermal
	// exposure at the segment-end temperature.
	advance := func(d *fleetDrive, to time.Duration, duty float64) {
		for d.clock < to {
			end := to
			if failure != nil {
				switch {
				case d.clock < failure.At && failure.At < end:
					end = failure.At
				case d.clock < failure.At+failure.Duration && failure.At+failure.Duration < end:
					end = failure.At + failure.Duration
				}
			}
			seg := end - d.clock
			d.tr.Advance(thermal.Load{RPM: d.gen.RPM, VCMDuty: duty, Ambient: ambientAt(d, d.clock)}, seg)
			d.clock = end
			res.exposure.Add(d.tr.State().Air, seg)
		}
		note(d)
	}

	eng := sim.NewEngine()
	var served int64

	serve := func(e *sim.Engine, d *fleetDrive, r disksim.Request) bool {
		served++
		if served%cancelStride == 0 {
			if err := ctx.Err(); err != nil {
				e.Fail(err)
				return false
			}
		}
		start := r.Arrival
		if rt := d.disk.ReadyTime(); rt > start {
			start = rt
		}
		advance(d, start, 0)

		if d.tr.State().Air >= thermal.Envelope-guardBand {
			res.throttleEvents++
			cool := thermal.Load{RPM: d.gen.RPM, VCMDuty: 0, Ambient: ambientAt(d, d.clock)}
			pause, _ := d.tr.AdvanceUntil(cool, coolLimit,
				func(s thermal.State) bool { return s.Air <= thermal.Envelope-resumeHysteresis })
			res.exposure.Add(d.tr.State().Air, pause)
			d.clock += pause
			res.throttledTime += pause
			note(d)
			d.disk.Delay(d.clock)
		}

		comp, err := d.disk.Serve(r)
		if err != nil {
			e.Fail(err)
			return false
		}
		advance(d, comp.Finish, 1)
		res.requests++
		ms := float64(comp.Response()) / float64(time.Millisecond)
		res.latency.AddMillis(ms)
		res.latencyBuckets.AddMillis(ms)
		if cfg.Metrics != nil {
			cfg.Metrics.observe(d.tr.State().Air)
		}
		return true
	}

	// pickCooler returns the migration target for a stream leaving slot
	// from: the coolest other slot (by last observed air, ties to the
	// lowest index) that sits below the hysteresis band, or -1.
	pickCooler := func(from int) int {
		limit := cfg.Migration.ThresholdC - cfg.Migration.HysteresisC
		best, bestAir := -1, units.Celsius(0)
		for s, d := range drives {
			if s == from || d.air > limit {
				continue
			}
			if best < 0 || d.air < bestAir {
				best, bestAir = s, d.air
			}
		}
		return best
	}

	// One chained admission per stream bound to this chassis. The stream
	// keeps its own rng (keyed by global stream id) and its current slot;
	// a request's LBN is drawn as a fraction of whichever drive it lands
	// on, so a migration rebinds the remaining requests to the cooler slot.
	for s := 0; s < n; s++ {
		spec := streams[streamOn[env.slot0+s]]
		rng := rand.New(rand.NewSource(mix(cfg.Workload.Seed, tagArrival, int64(spec.id))))
		remaining := cfg.Workload.RequestsPerDrive
		now := 0.0
		nextID := int64(spec.id) * int64(cfg.Workload.RequestsPerDrive)
		src := sim.SourceFunc[draw](func() (draw, bool) {
			if remaining == 0 {
				return draw{}, false
			}
			remaining--
			now += rng.ExpFloat64() / spec.rate
			q := draw{id: nextID, arrival: time.Duration(now * float64(time.Second)), frac: rng.Float64()}
			q.write = rng.Float64() < writeFraction
			nextID++
			return q, true
		})
		slot := s
		sim.Chain(eng, src, draw.at, func(e *sim.Engine, q draw) bool {
			d := drives[slot]
			if !serve(e, d, disksim.Request{
				ID:      q.id,
				Arrival: q.arrival,
				LBN:     int64(q.frac * float64(d.gen.TotalSectors-requestSectors)),
				Sectors: requestSectors,
				Write:   q.write,
			}) {
				return false
			}
			if cfg.Migration.ThresholdC > 0 && d.air >= cfg.Migration.ThresholdC {
				if to := pickCooler(slot); to >= 0 {
					slot = to
					res.migrations++
				}
			}
			return true
		}, nil)
	}

	if err := eng.Run(); err != nil {
		return nil, err
	}

	// Drain every drive's transient to the chassis' end of time so idle
	// tails (and the cooling-failure window, if it outlives the last
	// request) are scored, then fold the per-drive maxima into the
	// fleet's temperature distribution.
	end := eng.Now()
	if failure != nil {
		if fe := failure.At + failure.Duration; fe > end {
			end = fe
		}
	}
	for _, d := range drives {
		advance(d, end, 0)
		res.tempBuckets.AddMillis(float64(d.maxAir))
	}
	return res, nil
}
