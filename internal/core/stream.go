package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// Observe carries the optional observability sinks for a sweep. The zero
// value disables everything: a nil Registry hands out nil metric handles and
// a nil Tracer makes every Record a single branch, so the un-observed sweep
// is bit- and allocation-identical to the pre-observability code.
type Observe struct {
	// Registry receives per-step metric series, labelled
	// {workload=<name>, rpm=<step>}. Those labels make each gauge
	// single-writer and each counter commutative, which is what keeps
	// snapshots byte-identical at any -workers count.
	Registry *obs.Registry

	// Tracer receives request-lifetime spans. Each step records into a
	// private sub-tracer; the runner merges them in step order after the
	// parallel fan-in, so span output is deterministic too.
	Tracer *obs.Tracer

	// SpanLimit caps the spans each step retains (0 = obs.DefaultSpanLimit).
	// Overflow is counted, not kept, bounding memory on long replays.
	SpanLimit int
}

func (o Observe) spanLimit() int {
	if o.SpanLimit > 0 {
		return o.SpanLimit
	}
	return obs.DefaultSpanLimit
}

// RunFigure4StepsStream runs an explicit RPM sweep on the streaming path.
// Each step is fully self-contained — its own engine, its own volume, its
// own lazy re-streaming of the seeded trace — so the steps fan out over the
// sweep engine (workers <= 0 uses parallel.Default()) while memory stays
// O(queue depth) per in-flight step.
func RunFigure4StepsStream(p trace.Params, steps []units.RPM, workers int) (WorkloadResult, error) {
	return RunFigure4StepsStreamCtx(context.Background(), p, steps, workers, Observe{}, nil)
}

// figure4Step runs one RPM cell of the streaming sweep: its own volume, its
// own engine, its own lazy re-streaming of the seeded trace. The source is
// gated on ctx, so a cancelled job stops at the next request admission; the
// gate is one nil-error check per request when ctx can be cancelled and
// none when it cannot, and either way the un-cancelled path is
// bit-identical to the historic one.
func figure4Step(ctx context.Context, p trace.Params, rpm units.RPM, ob Observe, tracer *obs.Tracer) (RPMStep, error) {
	vol, err := p.BuildVolume(rpm)
	if err != nil {
		return RPMStep{}, err
	}
	src, err := p.Stream(vol.Capacity())
	if err != nil {
		return RPMStep{}, err
	}

	eng := sim.NewEngine()
	if ob.Registry != nil {
		vol.Instrument(ob.Registry,
			"workload", p.Name, "rpm", strconv.Itoa(int(rpm)))
	}
	if tracer != nil {
		eng.SetTracer(tracer)
	}

	var mean stats.Running
	p95 := stats.MustP2(0.95)
	cdf := stats.NewFigure4Counts()
	var hits, subs int
	err = vol.RunStream(eng, sim.Gate(ctx, src),
		sim.SinkFunc[raid.Completion](func(c raid.Completion) {
			r := c.Response()
			mean.Add(r)
			p95.Add(r)
			cdf.Add(r)
			hits += c.CacheHits
			subs += c.SubRequests
		}))
	if err != nil {
		return RPMStep{}, fmt.Errorf("core: %s at %v: %w", p.Name, rpm, err)
	}
	// A gated-off source ends the run cleanly with partial statistics;
	// surface the cancellation instead of a wrong-looking step.
	if err := ctx.Err(); err != nil {
		return RPMStep{}, err
	}

	step := RPMStep{
		RPM:        rpm,
		MeanMillis: mean.Mean(),
		CDF:        cdf.CDF(),
		P95Millis:  p95.Value(),
	}
	if subs > 0 {
		step.CacheHitFraction = float64(hits) / float64(subs)
	}
	return step, nil
}

// RunFigure4StepsStreamCtx is RunFigure4StepsStream with observability
// sinks, cooperative cancellation and incremental delivery. With ob zero it
// is the same code on the same fast path (nil metric handles, nil tracer).
// With sinks attached, each step instruments its own volume under
// {workload, rpm} labels and records request spans into a private
// sub-tracer; sub-tracers merge into ob.Tracer in step order after the
// fan-in, so both the snapshot and the span stream are byte-identical at
// any worker count. ctx is checked at every request admission inside each
// step and at every step boundary; a cancelled or deadline-expired context
// aborts the sweep and returns ctx.Err(). When onStep is non-nil, each
// completed RPMStep is pushed to it in step order as soon as it and every
// earlier step have finished — so a serving layer can stream partial
// results to a client while later steps still run, without the delivery
// order ever depending on the worker count.
func RunFigure4StepsStreamCtx(ctx context.Context, p trace.Params, steps []units.RPM, workers int, ob Observe, onStep sim.Sink[RPMStep]) (WorkloadResult, error) {
	res := WorkloadResult{Workload: p}
	subTracers := make([]*obs.Tracer, len(steps))

	// In-order incremental delivery: completed steps park in `ready` until
	// every earlier index has arrived, then flush in input order. The
	// mutex serializes pushes, so onStep needs no locking of its own.
	var (
		emitMu sync.Mutex
		ready  = make([]*RPMStep, len(steps))
		next   int
	)
	emit := func(i int, s RPMStep) {
		if onStep == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		ready[i] = &s
		for next < len(ready) && ready[next] != nil {
			onStep.Push(*ready[next])
			next++
		}
	}

	out, err := parallel.MapCtx(ctx, workers, steps, func(i int, rpm units.RPM) (RPMStep, error) {
		var tracer *obs.Tracer
		if ob.Tracer != nil {
			tracer = obs.NewTracer(ob.spanLimit())
			subTracers[i] = tracer
		}
		step, err := figure4Step(ctx, p, rpm, ob, tracer)
		if err != nil {
			return RPMStep{}, err
		}
		emit(i, step)
		return step, nil
	})
	if err != nil {
		return res, err
	}
	for _, sub := range subTracers {
		ob.Tracer.Merge(sub)
	}
	res.Steps = out
	return res, nil
}

// RunAllFigure4StreamObs fans the whole Figure 4 grid — every workload,
// every RPM step — out on the streaming path, optionally scaled to n
// requests each (n <= 0 keeps the paper's full request counts). The
// per-workload and per-step fan-outs share the worker budget; results come
// back in the workload order of trace.Workloads, bit-identical at any
// worker count. Tracer determinism nests: each workload records into its
// own sub-tracer (whose steps in turn record into per-step sub-tracers),
// and the merges happen in workload order here, step order inside — so
// -trace-out bytes are independent of the worker count.
func RunAllFigure4StreamObs(n, workers int, ob Observe) ([]WorkloadResult, error) {
	subTracers := make([]*obs.Tracer, len(trace.Workloads))
	out, err := parallel.Map(workers, trace.Workloads, func(i int, w trace.Params) (WorkloadResult, error) {
		if n > 0 {
			w = w.WithRequests(n)
		}
		wb := ob
		if ob.Tracer != nil {
			subTracers[i] = obs.NewTracer(ob.spanLimit())
			wb.Tracer = subTracers[i]
		}
		return RunFigure4StepsStreamCtx(context.Background(), w, Figure4Steps(w.BaselineRPM), workers, wb, nil)
	})
	if err != nil {
		return nil, err
	}
	for _, sub := range subTracers {
		ob.Tracer.Merge(sub)
	}
	return out, nil
}
