package fleet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// racksPerWindow bounds how many racks' chassis are in flight at once:
// large enough to keep the shard pool busy, small enough that a
// 100k-drive fleet never holds more than a few racks of live disk state.
const racksPerWindow = 4

// rebuildWindow is the repair time the MTTDL and rebuild-exposure scores
// assume.
const rebuildWindow = 6 * time.Hour

// RackSummary is the streaming unit of fleet output: one rack's merged
// aggregates, emitted as soon as the rack's chassis shards complete (in
// rack order, regardless of worker count).
type RackSummary struct {
	Rack    int `json:"rack"`
	Chassis int `json:"chassis"`
	Drives  int `json:"drives"`

	Requests      int64   `json:"requests"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	MaxLatencyMS  float64 `json:"max_latency_ms"`

	HottestAirC    float64 `json:"hottest_air_c"`
	EffectiveTempC float64 `json:"effective_temp_c"`
	EffectiveAFR   float64 `json:"effective_afr"`

	EnvelopeViolations int64   `json:"envelope_violations"`
	ThrottleEvents     int64   `json:"throttle_events"`
	ThrottledMS        float64 `json:"throttled_ms"`
	Migrations         int64   `json:"migrations"`

	// MTTDLHours and RebuildRisk score each chassis as a
	// single-fault-tolerant group of the rack's drives at the rack's
	// effective temperature, over the configured rebuild window.
	MTTDLHours  float64 `json:"mttdl_hours"`
	RebuildRisk float64 `json:"rebuild_risk"`
}

// Summary is the fleet-wide reduction.
type Summary struct {
	Racks   int `json:"racks"`
	Chassis int `json:"chassis"`
	Drives  int `json:"drives"`

	Requests      int64   `json:"requests"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
	P95LatencyMS  float64 `json:"p95_latency_ms"`
	P99LatencyMS  float64 `json:"p99_latency_ms"`
	MaxLatencyMS  float64 `json:"max_latency_ms"`

	HottestAirC float64 `json:"hottest_air_c"`

	// P50/P95/P99DriveMaxC are quantiles of the per-drive maximum
	// internal air temperature — the fleet's temperature distribution.
	P50DriveMaxC float64 `json:"p50_drive_max_c"`
	P95DriveMaxC float64 `json:"p95_drive_max_c"`
	P99DriveMaxC float64 `json:"p99_drive_max_c"`

	EnvelopeViolations int64   `json:"envelope_violations"`
	ThrottleEvents     int64   `json:"throttle_events"`
	ThrottledMS        float64 `json:"throttled_ms"`
	Migrations         int64   `json:"migrations"`

	EffectiveTempC float64 `json:"effective_temp_c"`
	EffectiveAFR   float64 `json:"effective_afr"`

	// WorstMTTDLHours and WorstRebuildRisk are the weakest rack's scores.
	WorstMTTDLHours  float64 `json:"worst_mttdl_hours"`
	WorstRebuildRisk float64 `json:"worst_rebuild_risk"`
}

// Sink receives each rack's summary as it completes.
type Sink func(RackSummary) error

// Run simulates the fleet, streaming rack summaries to sink (which may be
// nil) and returning the fleet-wide reduction. Chassis shards fan out over
// internal/parallel in rack windows; merges always happen in topology
// order, so the returned Summary and the sink's byte stream are identical
// at every worker count. Memory stays flat in fleet size: only the
// in-flight window's disk state is live, everything else is O(1)
// accumulators.
func Run(ctx context.Context, cfg Config, sink Sink) (Summary, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Summary{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	gens, err := generations(cfg.GenYears)
	if err != nil {
		return Summary{}, err
	}
	t := cfg.Topology
	envs := buildEnvs(cfg, gens)
	streams := buildStreams(cfg.Workload, t.Drives())
	streamOn := place(cfg.Placement, streams, designAmbients(envs, t.Drives()))

	model := reliability.Default()
	sum := Summary{Racks: t.Racks, Chassis: t.Chassis(), Drives: t.Drives()}
	var latency stats.Running
	latencyBuckets := stats.NewBucketCounts(LatencyEdges())
	tempBuckets := stats.NewBucketCounts(TempEdges())
	exposure := reliability.NewExposure(model)

	cpr := t.ChassisPerRack
	for w0 := 0; w0 < t.Racks; w0 += racksPerWindow {
		w1 := w0 + racksPerWindow
		if w1 > t.Racks {
			w1 = t.Racks
		}
		window := envs[w0*cpr : w1*cpr]
		results, err := parallel.MapCtx(ctx, cfg.Workers, window, func(_ int, env chassisEnv) (*chassisResult, error) {
			return runChassis(ctx, cfg, env, streamOn, streams)
		})
		if err != nil {
			return Summary{}, err
		}

		for rack := w0; rack < w1; rack++ {
			shards := results[(rack-w0)*cpr : (rack-w0+1)*cpr]
			rackExp := reliability.NewExposure(model)
			rs := RackSummary{Rack: rack, Chassis: cpr, Drives: cpr * t.SlotsPerChassis}
			var rackLat stats.Running
			for _, cr := range shards {
				rs.Requests += cr.requests
				rackLat.Merge(&cr.latency)
				rackExp.Merge(cr.exposure)
				if float64(cr.hottest) > rs.HottestAirC {
					rs.HottestAirC = float64(cr.hottest)
				}
				rs.EnvelopeViolations += cr.violations
				rs.ThrottleEvents += cr.throttleEvents
				rs.ThrottledMS += float64(cr.throttledTime) / float64(time.Millisecond)
				rs.Migrations += cr.migrations

				if err := latencyBuckets.Merge(cr.latencyBuckets); err != nil {
					return Summary{}, fmt.Errorf("fleet: rack %d: %w", rack, err)
				}
				if err := tempBuckets.Merge(cr.tempBuckets); err != nil {
					return Summary{}, fmt.Errorf("fleet: rack %d: %w", rack, err)
				}
			}
			rs.MeanLatencyMS = rackLat.Mean()
			rs.MaxLatencyMS = rackLat.Max()
			effT := rackExp.EffectiveTemperature()
			rs.EffectiveTempC = float64(effT)
			rs.EffectiveAFR = rackExp.EffectiveAFR()
			rs.MTTDLHours = raid.MTTDL(model, effT, t.SlotsPerChassis, rebuildWindow).Hours()
			rs.RebuildRisk = raid.RebuildRisk(model, effT, t.SlotsPerChassis-1, rebuildWindow)

			latency.Merge(&rackLat)
			exposure.Merge(rackExp)
			if rs.HottestAirC > sum.HottestAirC {
				sum.HottestAirC = rs.HottestAirC
			}
			sum.Requests += rs.Requests
			sum.EnvelopeViolations += rs.EnvelopeViolations
			sum.ThrottleEvents += rs.ThrottleEvents
			sum.ThrottledMS += rs.ThrottledMS
			sum.Migrations += rs.Migrations
			if sum.WorstMTTDLHours == 0 || rs.MTTDLHours < sum.WorstMTTDLHours {
				sum.WorstMTTDLHours = rs.MTTDLHours
			}
			if rs.RebuildRisk > sum.WorstRebuildRisk {
				sum.WorstRebuildRisk = rs.RebuildRisk
			}

			cfg.Metrics.rackDone(rs)
			if sink != nil {
				if err := sink(rs); err != nil {
					return Summary{}, err
				}
			}
		}
	}

	sum.MeanLatencyMS = latency.Mean()
	sum.MaxLatencyMS = latency.Max()
	sum.P95LatencyMS = latencyBuckets.Quantile(0.95)
	sum.P99LatencyMS = latencyBuckets.Quantile(0.99)
	sum.P50DriveMaxC = tempBuckets.Quantile(0.50)
	sum.P95DriveMaxC = tempBuckets.Quantile(0.95)
	sum.P99DriveMaxC = tempBuckets.Quantile(0.99)
	sum.EffectiveTempC = float64(exposure.EffectiveTemperature())
	sum.EffectiveAFR = exposure.EffectiveAFR()
	return sum, nil
}

// Preview solves the fleet's static thermal picture without running any
// workload: every drive's design-point ambient and steady internal air.
// This is the array.Evaluate generalisation to the full topology, used by
// the examples and for placement inspection.
type PreviewDrive struct {
	Rack, Chassis, Slot int
	Year                int
	Ambient             units.Celsius
	Air                 units.Celsius
	WithinEnvelope      bool
}

// PreviewFleet computes the static per-drive picture in topology order.
func PreviewFleet(cfg Config) ([]PreviewDrive, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gens, err := generations(cfg.GenYears)
	if err != nil {
		return nil, err
	}
	envs := buildEnvs(cfg, gens)
	out := make([]PreviewDrive, 0, cfg.Topology.Drives())
	for _, env := range envs {
		for s, g := range env.gens {
			st := g.Thermal.SteadyState(thermal.Load{RPM: g.RPM, VCMDuty: 1, Ambient: env.ambients[s]})
			out = append(out, PreviewDrive{
				Rack:           env.rack,
				Chassis:        env.pos,
				Slot:           s,
				Year:           g.Year,
				Ambient:        env.ambients[s],
				Air:            st.Air,
				WithinEnvelope: st.Air <= thermal.Envelope,
			})
		}
	}
	return out, nil
}
