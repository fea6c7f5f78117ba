package raid

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/disksim"
	"repro/internal/sim"
)

// Serve services one volume request immediately: it fans the request out to
// its member-disk I/Os and services each in mapping order (each member's
// FCFS queue advances independently; the slowest constituent determines the
// finish). This is the event-loop unit of work — RunStream admits one Serve
// per arrival event. The completion is built in the named result, so it is
// returned without a copy.
func (v *Volume) Serve(r Request) (c Completion, err error) {
	subs, err := v.mapRequest(r)
	if err != nil {
		return Completion{}, err
	}
	c.Request = r
	c.SubRequests = len(subs)
	c.SlowestDisk = -1
	for _, sb := range subs {
		comp, err := v.disks[sb.disk].Serve(sb.req)
		if err != nil {
			return Completion{}, err
		}
		// Deterministic slowest-sub pick: max finish, ties to the lowest
		// member index (the order the batch join always scanned disks in).
		if c.SlowestDisk < 0 || comp.Finish > c.Finish ||
			(comp.Finish == c.Finish && sb.disk < c.SlowestDisk) {
			c.Finish = comp.Finish
			c.Parts = comp.Parts
			c.SlowestDisk = sb.disk
		}
		if comp.CacheHit {
			c.CacheHits++
		}
	}
	if v.writeBack > 0 && r.Write {
		c.Finish = r.Arrival + v.writeBack
	}
	v.ins.record(&c)
	return c, nil
}

// RunStream services volume requests pulled lazily from src, pushing each
// completion to sink as it happens: memory stays O(1) in trace length and
// nothing is allocated per request (sim.Chain admits one request at a
// time). The source must yield requests in nondecreasing arrival order (the
// trace generators do); an out-of-order arrival aborts the run.
//
// Requests are admitted as engine events at their arrival times, so sharing
// eng with other processes (DTM sample ticks, a second volume) interleaves
// them deterministically on one clock.
func (v *Volume) RunStream(eng *sim.Engine, src sim.Source[Request], sink sim.Sink[Completion]) error {
	if eng == nil {
		eng = sim.NewEngine()
	}
	last := time.Duration(-1)
	sim.Chain(eng, src, arrival, func(e *sim.Engine, r Request) bool {
		if r.Arrival < last {
			e.Fail(fmt.Errorf("raid: stream out of order: request %d arrives at %v after %v",
				r.ID, r.Arrival, last))
			return false
		}
		last = r.Arrival
		c, err := v.Serve(r)
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

// Simulate runs a volume-level workload and returns completions sorted by
// request arrival. It is the collect-into-slice wrapper over RunStream: the
// batch is stably sorted by arrival and replayed through the event engine.
// Member disks configured with a reordering scheduler (SSTF/SPTF/LOOK) fall
// back to the per-disk batch picker, which needs the whole sub-request
// queue at once.
func (v *Volume) Simulate(reqs []Request) ([]Completion, error) {
	for _, d := range v.disks {
		if d.Scheduler() != disksim.FCFS {
			return v.SimulateBatch(reqs)
		}
	}
	sorted := make([]Request, len(reqs))
	copy(sorted, reqs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Arrival < sorted[j].Arrival })

	out := make([]Completion, 0, len(sorted))
	err := v.RunStream(sim.NewEngine(), sim.FromSlice(sorted),
		sim.SinkFunc[Completion](func(c Completion) { out = append(out, c) }))
	if err != nil {
		return nil, err
	}
	// Historic output order: arrival, then ID.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Request.Arrival != out[j].Request.Arrival {
			return out[i].Request.Arrival < out[j].Request.Arrival
		}
		return out[i].Request.ID < out[j].Request.ID
	})
	return out, nil
}
