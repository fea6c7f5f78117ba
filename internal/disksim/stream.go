package disksim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sim"
)

// RunStream drives the disk from a lazily-yielded FCFS request stream on an
// event engine: each request is admitted as an arrival event, serviced via
// Serve (all FaultInjector hooks intact), and its completion pushed to sink;
// only then is the next request pulled (sim.Chain), so memory stays O(1) in
// trace length and nothing is allocated per request. The source must yield
// requests in nondecreasing arrival order — the order Simulate establishes
// by sorting and the trace generators emit natively.
//
// RunStream schedules onto eng and runs it to completion. Passing a shared
// engine interleaves this disk's admissions with other processes (thermal
// sample ticks, other disks) on one deterministic clock.
func (d *Disk) RunStream(eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if eng == nil {
		eng = sim.NewEngine()
	}
	sim.Chain(eng, src, arrival, func(e *sim.Engine, r Request) bool {
		c, err := d.Serve(r)
		if err != nil {
			e.Fail(err)
			return false
		}
		recordSpan(e.Tracer(), &c)
		sink.Push(c)
		return true
	}, nil)
	return eng.Run()
}

// arrival is a request's admission time.
func arrival(r Request) time.Duration { return r.Arrival }

// RunStreamCtx is RunStream with cooperative cancellation: the source is
// gated on ctx (checked at every admission) and a cancelled run reports
// ctx.Err() instead of a partial-looking success, matching the other
// streaming runners' contract for the serving layer.
func (d *Disk) RunStreamCtx(ctx context.Context, eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if err := d.RunStream(eng, sim.Gate(ctx, src), sink); err != nil {
		return err
	}
	return ctx.Err()
}

// Simulate services a batch of requests under the configured scheduler and
// returns their completions in service order. It is the collect-into-slice
// wrapper over the streaming path: FCFS sorts the batch by arrival and
// replays it through RunStream; the queue-reordering disciplines
// (SSTF/SPTF/LOOK) keep a pending set and are serviced by the batch picker.
func (d *Disk) Simulate(reqs []Request) ([]Completion, error) {
	sorted := sortedByArrival(reqs)
	if d.cfg.Scheduler != FCFS {
		return d.simulateQueued(sorted)
	}
	out := make([]Completion, 0, len(sorted))
	var collect sim.Appender[Completion]
	collect.Items = out
	if err := d.RunStream(sim.NewEngine(), sim.FromSlice(sorted), &collect); err != nil {
		return nil, err
	}
	return collect.Items, nil
}

// Scheduler returns the configured queueing discipline.
func (d *Disk) Scheduler() Scheduler { return d.cfg.Scheduler }

// sortedByArrival returns a stably arrival-sorted copy.
func sortedByArrival(reqs []Request) []Request {
	sorted := make([]Request, len(reqs))
	copy(sorted, reqs)
	stableSortByArrival(sorted)
	return sorted
}

// StreamStats is a Sink that summarises completions without retaining them:
// the O(1)-memory counterpart of collecting into a slice.
type StreamStats struct {
	N         int64
	CacheHits int64
	Retries   int64
	Remaps    int64
	LastDone  time.Duration
}

// Push implements sim.Sink.
func (s *StreamStats) Push(c Completion) {
	s.N++
	if c.CacheHit {
		s.CacheHits++
	}
	s.Retries += int64(c.Retries)
	if c.Remapped {
		s.Remaps++
	}
	if c.Finish > s.LastDone {
		s.LastDone = c.Finish
	}
}

// String implements fmt.Stringer.
func (s *StreamStats) String() string {
	return fmt.Sprintf("%d served (%d cache hits, %d retries, %d remaps), last done %v",
		s.N, s.CacheHits, s.Retries, s.Remaps, s.LastDone)
}
