package power

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/disksim"
	"repro/internal/units"
)

// SpinDownPolicy is the classic idle-timeout power policy of the
// laptop-disk literature the paper builds from (Douglis & Krishnan; Lu et
// al.): after IdleTimeout without requests the spindle stops (only the
// electronics draw power); the next request pays the spin-up delay and
// energy. The paper's server-disk premise — idle periods too short for
// spin-down, hence multi-speed/DTM approaches — falls out of this analysis.
type SpinDownPolicy struct {
	// IdleTimeout is how long the disk waits before spinning down.
	IdleTimeout time.Duration
}

// spinUpTime is the restart delay of a server-class drive.
const spinUpTime = 10 * time.Second

// spinUpEnergy is the restart energy cost: twice the idle power over the
// spin-up time, the usual inrush approximation.
func spinUpEnergy(idleP units.Watts) Joules { return Energy(2*idleP, spinUpTime) }

// SpinDownResult is the offline what-if evaluation of the policy over a
// completed trace.
type SpinDownResult struct {
	// Baseline is the always-spinning energy over the span.
	Baseline Joules

	// WithPolicy is the energy under the policy (idle-down periods at
	// electronics-only power, plus spin-up costs).
	WithPolicy Joules

	// SpinDowns counts spindle stops.
	SpinDowns int

	// DelayedRequests counts requests that would arrive against a stopped
	// spindle; AddedLatency is their total spin-up waiting.
	DelayedRequests int
	AddedLatency    time.Duration

	// DownTime is the total spun-down duration.
	DownTime time.Duration
}

// Savings returns the relative energy reduction (negative when the policy
// costs energy).
func (r SpinDownResult) Savings() float64 {
	if r.Baseline == 0 {
		return 0
	}
	return float64(r.Baseline-r.WithPolicy) / float64(r.Baseline)
}

// EvaluateSpinDown replays a completed run's idle gaps against the policy.
// It is an offline analysis: the completion times themselves are not
// altered, but the added latency the policy would have imposed is reported.
func (m *Model) EvaluateSpinDown(rpm units.RPM, comps []disksim.Completion, p SpinDownPolicy) (SpinDownResult, error) {
	var res SpinDownResult
	if p.IdleTimeout <= 0 {
		return res, fmt.Errorf("power: non-positive idle timeout %v", p.IdleTimeout)
	}
	if len(comps) == 0 {
		return res, nil
	}
	sorted := make([]disksim.Completion, len(comps))
	copy(sorted, comps)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })

	span := sorted[len(sorted)-1].Finish - sorted[0].Request.Arrival
	idleP := m.Idle(rpm).Total()
	res.Baseline = Energy(idleP, span) // seek energy identical in both cases; excluded

	spinUpE := spinUpEnergy(idleP)

	saved := Joules(0)
	for i := 1; i < len(sorted); i++ {
		gap := sorted[i].Request.Arrival - sorted[i-1].Finish
		if gap <= p.IdleTimeout {
			continue
		}
		down := gap - p.IdleTimeout
		res.SpinDowns++
		res.DownTime += down
		res.DelayedRequests++
		res.AddedLatency += spinUpTime
		// Energy saved while down, minus the standby floor that keeps
		// drawing, minus the restart cost.
		saved += Energy(idleP-StandbyPower, down) - spinUpE
	}
	res.WithPolicy = res.Baseline - saved
	return res, nil
}

// BreakEvenIdle returns the minimum idle gap for which spinning down saves
// energy at all — the textbook break-even threshold.
func (m *Model) BreakEvenIdle(rpm units.RPM) time.Duration {
	idleP := m.Idle(rpm).Total()
	spinUpE := spinUpEnergy(idleP)
	rate := float64(idleP - StandbyPower) // W saved per second down
	if rate <= 0 {
		return time.Duration(1<<63 - 1)
	}
	return time.Duration(float64(spinUpE) / rate * float64(time.Second))
}
