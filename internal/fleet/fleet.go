// Package fleet simulates drive fleets at datacenter scale: drives racked
// into chassis, chassis stacked into racks, racks in a machine room, with
// the inter-drive thermal coupling the paper's density argument is about —
// downstream slots breathe preheated air, upper chassis re-ingest part of
// the rack's exhaust, and a cooling failure turns the shared airstream
// into a shared accelerant.
//
// The layer composes the repository's existing engines instead of
// reimplementing them: drive generations come from the scaling roadmap,
// each drive is a disksim mechanical model co-advanced with its thermal
// transient on the internal/sim event engine (the dtm streaming
// discipline), shards fan out over internal/parallel, and fleet-wide
// aggregates stream through internal/stats accumulators so a 100k-drive
// run holds only the in-flight chassis plus O(1) summaries in memory.
//
// Determinism contract: every per-drive stream is seeded by position, each
// chassis simulates self-contained on its own engine, and shard results
// merge in topology order — so a seeded run's output is byte-identical at
// any worker count.
package fleet

import (
	"fmt"
	"time"

	"repro/internal/units"
)

// Topology is the fleet's physical arrangement. Chassis index 0 in a rack
// is nearest the cold aisle; slot index 0 in a chassis is nearest the
// chassis inlet.
type Topology struct {
	Racks           int
	ChassisPerRack  int
	SlotsPerChassis int
}

// Drives returns the fleet's drive count.
func (t Topology) Drives() int { return t.Racks * t.ChassisPerRack * t.SlotsPerChassis }

// Chassis returns the fleet's chassis count.
func (t Topology) Chassis() int { return t.Racks * t.ChassisPerRack }

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	switch {
	case t.Racks <= 0:
		return fmt.Errorf("fleet: %d racks", t.Racks)
	case t.ChassisPerRack <= 0:
		return fmt.Errorf("fleet: %d chassis per rack", t.ChassisPerRack)
	case t.SlotsPerChassis <= 0:
		return fmt.Errorf("fleet: %d slots per chassis", t.SlotsPerChassis)
	}
	return nil
}

// CoolingFailure is a scenario event: the affected racks' inlet air rises
// by DeltaC for the window [At, At+Duration) on the simulation clock — a
// CRAC unit dropping out, or a hot-aisle containment breach.
type CoolingFailure struct {
	// Rack selects the affected rack; negative means room-wide.
	Rack int

	At       time.Duration
	Duration time.Duration
	DeltaC   units.Celsius
}

// active reports whether the failure window covers t for the given rack.
func (f *CoolingFailure) active(rack int, t time.Duration) bool {
	if f == nil || (f.Rack >= 0 && f.Rack != rack) {
		return false
	}
	return t >= f.At && t < f.At+f.Duration
}

// affects reports whether the failure ever touches the rack.
func (f *CoolingFailure) affects(rack int) bool {
	return f != nil && f.Duration > 0 && (f.Rack < 0 || f.Rack == rack)
}

// Scenario sets the room-level thermal knobs. The cold-aisle supply is
// always the paper's 28 C default ambient (thermal.DefaultAmbient).
type Scenario struct {
	// AirflowCFM is the per-chassis airflow (0 = 30 CFM).
	AirflowCFM float64

	// Recirculation in [0,1) is the fraction of a chassis' outlet
	// temperature rise re-ingested by the chassis above it in the rack —
	// the hot-aisle short-circuit. 0 gives every chassis cold-aisle air.
	Recirculation float64

	// CoolingFailure, when set, perturbs the affected racks' inlets.
	CoolingFailure *CoolingFailure
}

// Workload shapes the per-drive request streams: every drive gets one
// seeded stream; a HotFraction of streams run at hotRatePerS and the rest
// at coldRatePerS, Poisson arrivals, 8-sector requests, 30% writes.
type Workload struct {
	// RequestsPerDrive is the stream length (0 = 40).
	RequestsPerDrive int

	// HotFraction in [0,1] is the share of streams that are hot
	// (0 = 0.25).
	HotFraction float64

	// Seed drives every stream's arrival/address sequence and the
	// hot/cold assignment. The same seed replays the identical fleet.
	Seed int64
}

// Placement selects the initial stream->drive assignment policy.
type Placement string

// Placement policies.
const (
	// PlaceStatic binds stream i to drive i: workload lands wherever the
	// topology put the drive.
	PlaceStatic Placement = "static"

	// PlaceCoolest greedily assigns the hottest streams to the drives
	// with the coolest design-point ambient (cold-aisle-adjacent slots),
	// the Energy-Aware placement idea.
	PlaceCoolest Placement = "coolest"
)

// Migration is the temperature-threshold migration policy: after a
// completion on a drive at or above ThresholdC, the stream moves to the
// coolest drive in the same chassis that last observed at most
// ThresholdC - HysteresisC. Zero ThresholdC disables migration. Migration
// stays within the chassis so shards remain independent.
type Migration struct {
	ThresholdC  units.Celsius
	HysteresisC units.Celsius // 0 = 2 C
}

// Config parameterises one fleet run.
type Config struct {
	Topology Topology
	Scenario Scenario
	Workload Workload

	// Placement is the initial stream assignment ("" = static).
	Placement Placement

	// Migration, when enabled, moves streams off hot drives mid-run.
	Migration Migration

	// GenYears are the drive generations, assigned round-robin across the
	// fleet's slots; each year's geometry, layout and envelope speed come
	// from the scaling roadmap engine (nil = 2002..2005).
	GenYears []int

	// Workers bounds the shard fan-out (0 = parallel.Default(),
	// 1 = sequential). Every worker count produces identical output.
	Workers int

	// Metrics, when non-nil, receives live fleet counters via
	// internal/obs. Purely observational: results are identical with or
	// without it.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Scenario.AirflowCFM == 0 {
		c.Scenario.AirflowCFM = 30
	}
	if c.Workload.RequestsPerDrive == 0 {
		c.Workload.RequestsPerDrive = 40
	}
	if c.Workload.HotFraction == 0 {
		c.Workload.HotFraction = 0.25
	}
	if c.Workload.Seed == 0 {
		c.Workload.Seed = 1
	}
	if c.Placement == "" {
		c.Placement = PlaceStatic
	}
	if c.Migration.ThresholdC > 0 && c.Migration.HysteresisC == 0 {
		c.Migration.HysteresisC = 2
	}
	if len(c.GenYears) == 0 {
		c.GenYears = []int{2002, 2003, 2004, 2005}
	}
	return c
}

// Validate rejects configurations a run would choke on. Callers admitting
// untrusted specs (the serving layer) bound sizes before ever reaching
// this; Validate guards physics and shape.
func (c Config) Validate() error {
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Scenario.AirflowCFM <= 0 {
		return fmt.Errorf("fleet: non-positive airflow %.1f CFM", c.Scenario.AirflowCFM)
	}
	if r := c.Scenario.Recirculation; r < 0 || r >= 1 {
		return fmt.Errorf("fleet: recirculation %g outside [0,1)", r)
	}
	if f := c.Scenario.CoolingFailure; f != nil {
		switch {
		case f.Rack >= c.Topology.Racks:
			return fmt.Errorf("fleet: cooling failure rack %d outside topology (%d racks)", f.Rack, c.Topology.Racks)
		case f.At < 0 || f.Duration < 0:
			return fmt.Errorf("fleet: cooling failure window [%v,+%v] not in sim time", f.At, f.Duration)
		}
	}
	switch c.Placement {
	case PlaceStatic, PlaceCoolest:
	default:
		return fmt.Errorf("fleet: unknown placement %q", c.Placement)
	}
	w := c.Workload
	switch {
	case w.RequestsPerDrive < 0:
		return fmt.Errorf("fleet: %d requests per drive", w.RequestsPerDrive)
	case w.HotFraction < 0 || w.HotFraction > 1:
		return fmt.Errorf("fleet: hot fraction %g outside [0,1]", w.HotFraction)
	}
	if len(c.GenYears) == 0 {
		return fmt.Errorf("fleet: no drive generations")
	}
	for _, y := range c.GenYears {
		if y < 1990 || y > 2100 {
			return fmt.Errorf("fleet: generation year %d outside [1990,2100]", y)
		}
	}
	return nil
}

// LatencyEdges returns the fixed response-time bucket edges (milliseconds)
// fleet aggregates use: 0.25 ms to 4096 ms in quarter-octave steps. Fixed
// edges make shard histograms exactly mergeable (stats.BucketCounts), which
// is why fleet p95/p99 are bucket-edge quantiles rather than P2 estimates —
// P2 marker state cannot be combined across shards.
func LatencyEdges() []float64 {
	out := make([]float64, 57)
	for i := range out {
		v := 0.25
		for k := 0; k < i/4; k++ {
			v *= 2
		}
		switch i % 4 {
		case 1:
			v *= 1.189207115002721 // 2^(1/4)
		case 2:
			v *= 1.4142135623730951 // 2^(1/2)
		case 3:
			v *= 1.681792830507429 // 2^(3/4)
		}
		out[i] = v
	}
	return out
}

// TempEdges returns the fixed drive-temperature bucket edges (Celsius) for
// the fleet's max-temperature distribution: 20 C to 80 C in 0.25 C steps.
func TempEdges() []float64 {
	out := make([]float64, 241)
	for i := range out {
		out[i] = 20 + float64(i)*0.25
	}
	return out
}

// mix derives position-keyed sub-seeds with a splitmix64-style chain, so a
// drive's stream depends only on (fleet seed, its global index) — never on
// shard boundaries or processing order.
func mix(seed int64, vals ...int64) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range vals {
		z ^= uint64(v) + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z += 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return int64(z & 0x7fffffffffffffff)
}

// mixFloat maps a mixed seed into [0,1).
func mixFloat(seed int64, vals ...int64) float64 {
	return float64(mix(seed, vals...)>>10) / float64(1<<53)
}
