package dtm

import (
	"fmt"
	"time"

	"repro/internal/disksim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/units"
)

// MirrorPolicy is the paper's section 5.4 proposal made concrete: a mirrored
// pair where writes propagate to both disks while reads are steered to one
// member at a time; when the active member approaches the envelope, reads
// move to the other member and the hot one cools with its VCM (nearly) idle.
// Both spindles keep turning, so the cooling mirrors Figure 6(a)'s VCM-only
// throttling — but the array never stops serving.
type MirrorPolicy struct {
	// Disks are the two mirror members (same layout, same RPM).
	Disks [2]*disksim.Disk

	// Thermal are the members' thermal models.
	Thermal [2]*thermal.Model

	// Initial optionally warm-starts both members' thermal state.
	Initial *thermal.State
}

// MirrorResult summarises a steered run.
type MirrorResult struct {
	MeanResponseMillis float64
	P95ResponseMillis  float64

	// MaxAirTemp is the hottest member temperature seen.
	MaxAirTemp units.Celsius

	// Switches counts read-steering role changes.
	Switches int

	// Reads and Writes count the request mix served.
	Reads, Writes int

	// Elapsed is the simulated span.
	Elapsed time.Duration
}

// Reads leave a member once its internal air reaches mirrorSwitchAt; a
// cooled member is eligible again at or below mirrorReturnBelow.
const (
	mirrorSwitchAt    = thermal.Envelope - 0.05
	mirrorReturnBelow = thermal.Envelope - 1
)

// Run services requests (sorted by arrival) under the steering policy.
// Requests address the mirrored logical space (both disks share the layout).
func (p *MirrorPolicy) Run(reqs []disksim.Request) (MirrorResult, error) {
	if p.Disks[0] == nil || p.Disks[1] == nil || p.Thermal[0] == nil || p.Thermal[1] == nil {
		return MirrorResult{}, fmt.Errorf("dtm: mirror needs two disks and two thermal models")
	}
	if p.Disks[0].Layout().TotalSectors() != p.Disks[1].Layout().TotalSectors() {
		return MirrorResult{}, fmt.Errorf("dtm: mirror members differ in capacity")
	}
	const amb = thermal.DefaultAmbient
	start0 := thermal.Uniform(amb)
	if p.Initial != nil {
		start0 = *p.Initial
	}

	var trs [2]*thermal.Transient
	var clocks [2]time.Duration
	for i := range trs {
		trs[i] = p.Thermal[i].NewTransient(start0)
	}
	rpm := [2]units.RPM{p.Disks[0].RPM(), p.Disks[1].RPM()}

	advance := func(i int, to time.Duration, duty float64) {
		if to > clocks[i] {
			trs[i].Advance(thermal.Load{RPM: rpm[i], VCMDuty: duty, Ambient: amb}, to-clocks[i])
			clocks[i] = to
		}
	}

	var res MirrorResult
	var sample stats.Sample
	maxT := start0.Air
	active := 0

	for _, r := range reqs {
		// Let both members' thermal state catch up to this arrival (idle
		// duty for whatever gap they had).
		for i := range trs {
			t := r.Arrival
			if rt := p.Disks[i].ReadyTime(); rt > t {
				t = rt
			}
			advance(i, t, 0)
			if a := trs[i].State().Air; a > maxT {
				maxT = a
			}
		}

		// Steering decision: if the active member is hot and the standby
		// has cooled enough, switch roles.
		if trs[active].State().Air >= mirrorSwitchAt &&
			trs[1-active].State().Air <= mirrorReturnBelow {
			active = 1 - active
			res.Switches++
		}

		serve := func(i int) (disksim.Completion, error) {
			comp, err := p.Disks[i].Serve(r)
			if err != nil {
				return comp, err
			}
			advance(i, comp.Finish, 1)
			if a := trs[i].State().Air; a > maxT {
				maxT = a
			}
			return comp, nil
		}
		var finish time.Duration
		if r.Write {
			// Writes propagate to both members; the slower one gates
			// the volume completion.
			res.Writes++
			c0, err := serve(0)
			if err != nil {
				return MirrorResult{}, err
			}
			c1, err := serve(1)
			if err != nil {
				return MirrorResult{}, err
			}
			finish = c0.Finish
			if c1.Finish > finish {
				finish = c1.Finish
			}
		} else {
			res.Reads++
			c, err := serve(active)
			if err != nil {
				return MirrorResult{}, err
			}
			finish = c.Finish
		}
		sample.Add(finish - r.Arrival)
		if finish > res.Elapsed {
			res.Elapsed = finish
		}
	}

	res.MeanResponseMillis = sample.Mean()
	res.P95ResponseMillis = sample.Percentile(95)
	res.MaxAirTemp = maxT
	return res, nil
}
