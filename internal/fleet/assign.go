package fleet

import (
	"sort"

	"repro/internal/thermal"
	"repro/internal/units"
)

// streamSpec is one workload stream before placement.
type streamSpec struct {
	id   int     // global stream index; also the seed key
	rate float64 // arrivals per second
	hot  bool
}

// mix tags keep the seed sub-streams (hot/cold draw, arrivals, addresses)
// statistically independent of one another.
const (
	tagHot     = 11
	tagArrival = 13
	tagAddress = 17
	tagWrite   = 19
)

// Arrival rates, per second, of the hot and the cold streams.
const (
	hotRatePerS  float64 = 90
	coldRatePerS float64 = 15
)

// buildStreams derives the fleet's stream population from the workload:
// stream i's heat class is a pure function of (seed, i), never of
// placement or shard.
func buildStreams(w Workload, n int) []streamSpec {
	out := make([]streamSpec, n)
	for i := range out {
		hot := mixFloat(w.Seed, tagHot, int64(i)) < w.HotFraction
		rate := coldRatePerS
		if hot {
			rate = hotRatePerS
		}
		out[i] = streamSpec{id: i, rate: rate, hot: hot}
	}
	return out
}

// place computes the initial drive->stream binding: streamOn[d] is the
// stream assigned to global drive index d. Design-point ambients are
// assignment-independent (dissipation is fixed by each drive's operating
// point), which is what lets placement run up front and every chassis
// shard stay self-contained.
func place(p Placement, streams []streamSpec, ambients []units.Celsius) []int {
	streamOn := make([]int, len(streams))
	if p != PlaceCoolest {
		for i := range streamOn {
			streamOn[i] = i
		}
		return streamOn
	}

	// Hottest streams onto the coolest slots. Both orders tie-break on
	// index so the assignment is a pure function of the inputs.
	drives := make([]int, len(ambients))
	for i := range drives {
		drives[i] = i
	}
	sort.SliceStable(drives, func(a, b int) bool {
		if ambients[drives[a]] != ambients[drives[b]] {
			return ambients[drives[a]] < ambients[drives[b]]
		}
		return drives[a] < drives[b]
	})
	byRate := make([]int, len(streams))
	for i := range byRate {
		byRate[i] = i
	}
	sort.SliceStable(byRate, func(a, b int) bool {
		if streams[byRate[a]].rate != streams[byRate[b]].rate {
			return streams[byRate[a]].rate > streams[byRate[b]].rate
		}
		return byRate[a] < byRate[b]
	})
	for k, d := range drives {
		streamOn[d] = byRate[k]
	}
	return streamOn
}

// chassisEnv is the precomputed static thermal environment of one chassis:
// its inlet under normal cooling and the per-slot design-point ambients.
// Only the cooling-failure delta varies with time during a run.
type chassisEnv struct {
	rack  int // rack index
	pos   int // chassis position within the rack (0 = nearest the cold aisle)
	index int // global chassis index, rack-major

	inlet    units.Celsius   // steady inlet after recirculation
	ambients []units.Celsius // per-slot design ambient at that inlet
	gens     []*Generation   // per-slot drive generation
	slot0    int             // global drive index of slot 0
}

// buildEnvs lays the generations into the topology and solves the rack's
// recirculation ladder. Chassis pos 0 breathes cold-aisle air; each one
// above re-ingests Recirculation of the rise below it:
//
//	inlet[p+1] = room + r*(inlet[p] + rise[p] - room)
//
// where rise[p] is the chassis' design-point outlet rise. The ladder uses
// the heat-capacity rate at the room inlet for every rung (fixed-property
// approximation, consistent with the airstream model).
func buildEnvs(cfg Config, gens []*Generation) []chassisEnv {
	t := cfg.Topology
	envs := make([]chassisEnv, 0, t.Chassis())
	const room = thermal.DefaultAmbient
	r := cfg.Scenario.Recirculation
	index := 0
	for rack := 0; rack < t.Racks; rack++ {
		inlet := room
		for pos := 0; pos < t.ChassisPerRack; pos++ {
			slot0 := index * t.SlotsPerChassis
			slotGens := make([]*Generation, t.SlotsPerChassis)
			diss := make([]units.Watts, t.SlotsPerChassis)
			for s := range slotGens {
				g := gens[(slot0+s)%len(gens)]
				slotGens[s] = g
				diss[s] = g.Dissipation
			}
			air := Airstream{Inlet: inlet, AirflowCFM: cfg.Scenario.AirflowCFM}
			envs = append(envs, chassisEnv{
				rack:     rack,
				pos:      pos,
				index:    index,
				inlet:    inlet,
				ambients: air.Ambients(diss),
				gens:     slotGens,
				slot0:    slot0,
			})
			rise := air.Outlet(diss) - inlet
			inlet = room + units.Celsius(r*float64(inlet+rise-room))
			index++
		}
	}
	return envs
}

// designAmbients flattens the per-slot ambients into one global
// drive-indexed slice for placement.
func designAmbients(envs []chassisEnv, drives int) []units.Celsius {
	out := make([]units.Celsius, drives)
	for _, env := range envs {
		copy(out[env.slot0:], env.ambients)
	}
	return out
}
