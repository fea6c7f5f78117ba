package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/raid"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// replay-figure4: the paper's Figure-4 sweep as users run it. Every one of
// the five paper arrays goes through core.RunFigure4StepsStream at its
// baseline speed and the three +5000 RPM steps, one worker, drive caches
// empty at the start of every cell. One "job" is one array's sweep.

// replaySampleEvery is the span sampling period (in request IDs) of the
// traced replay: one request in this many records its spans.
const replaySampleEvery = 1024

type replaySize struct{ requests, warmup int }

// replaySizing runs each array at cmd/experiments' default of 150,000
// requests per cell, the length users run the sweep at.
func replaySizing(tiny bool) replaySize {
	if tiny {
		return replaySize{requests: 300, warmup: 50}
	}
	return replaySize{requests: 150000, warmup: 10000}
}

// replayParams derives the five arrays' generator seeds from the workload
// seed; everything else is the paper's parameterization.
func replayParams(seed int64, n int) []trace.Params {
	ps := make([]trace.Params, len(trace.Workloads))
	for i, w := range trace.Workloads {
		w = w.WithRequests(n)
		w.Seed = deriveSeed(seed, "trace.Params", i)
		ps[i] = w
	}
	return ps
}

func steps(p trace.Params) []units.RPM { return core.Figure4Steps(p.BaselineRPM) }

// cellOut is the exactly-comparable part of one Figure-4 cell: the mean,
// the bucketed CDF and the cache-hit fraction. The P² p95 is left out on
// purpose — it is an estimate, not a contract.
type cellOut struct {
	rpm     units.RPM
	mean    float64
	cdf     []float64
	hitFrac float64
}

func (c cellOut) fold(d *digest) {
	d.float(float64(c.rpm))
	d.float(c.mean)
	for _, v := range c.cdf {
		d.float(v)
	}
	d.float(c.hitFrac)
}

func sweepDigest(name string, cells []cellOut) string {
	d := newDigest()
	d.str(name)
	for _, c := range cells {
		c.fold(d)
	}
	return d.hex()
}

func coreCells(res core.WorkloadResult) []cellOut {
	out := make([]cellOut, len(res.Steps))
	for i, s := range res.Steps {
		out[i] = cellOut{s.RPM, s.MeanMillis, s.CDF, s.CacheHitFraction}
	}
	return out
}

func combine(parts []string) string {
	d := newDigest()
	for _, p := range parts {
		d.str(p)
	}
	return d.hex()
}

func runReplay(cfg config) (*outcome, error) {
	size := replaySizing(cfg.tiny)
	var params []trace.Params
	setup, err := timeSetup(setupReps, func() error {
		ps := replayParams(cfg.seed, size.requests)
		for _, p := range ps {
			if err := p.Validate(); err != nil {
				return err
			}
			for _, rpm := range steps(p) {
				if _, err := p.BuildVolume(rpm); err != nil {
					return err
				}
			}
		}
		for _, p := range ps {
			w := p.WithRequests(size.warmup)
			if _, err := core.RunFigure4StepsStream(w, steps(w), 1); err != nil {
				return err
			}
		}
		params = ps
		return nil
	})
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return replayTraced(cfg, params)
	}

	o := &outcome{}
	first := make([]string, len(params))
	perPass := float64(len(params) * 4 * size.requests)
	pt, err := timedPasses(len(params), cfg.seconds, func(pass, i int) error {
		p := params[i]
		res, err := core.RunFigure4StepsStream(p, steps(p), 1)
		if err != nil {
			return fmt.Errorf("timed sweep of %s: %w", p.Name, err)
		}
		o.attempted += int64(4 * size.requests)
		dg := sweepDigest(p.Name, coreCells(res))
		if pass == 0 {
			first[i] = dg
		} else if dg != first[i] {
			o.violate("pass %d of %s gave digest %s, pass 0 gave %s", pass, p.Name, dg, first[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The peak resident set is read before the reference check, whose
	// collected traces would otherwise dominate it.
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	pt.log(cfg.log, "replay-figure4", perPass)

	o.digest = combine(first)
	ref, err := replayReference(params, o)
	if err != nil {
		return nil, err
	}
	o.ref = ref
	pt.addMetrics(o, setup, rss, perPass)
	return o, nil
}

// replayReference recomputes every cell on the batch path — the collected
// trace through Volume.Simulate, summarized with stats.Sample — which the
// streaming path's contract makes exactly equal in mean, bucketed CDF and
// hit fraction. It also checks that every request completed.
func replayReference(params []trace.Params, o *outcome) (string, error) {
	parts := make([]string, len(params))
	for i, p := range params {
		cells := make([]cellOut, 0, 4)
		for _, rpm := range steps(p) {
			vol, err := p.BuildVolume(rpm)
			if err != nil {
				return "", err
			}
			reqs, err := p.Generate(vol.Capacity())
			if err != nil {
				return "", err
			}
			comps, err := vol.Simulate(reqs)
			if err != nil {
				return "", fmt.Errorf("reference replay of %s at %v: %w", p.Name, rpm, err)
			}
			if len(comps) != p.Requests {
				o.violate("%s at %v completed %d of %d requests", p.Name, rpm, len(comps), p.Requests)
			}
			var sample stats.Sample
			var hits, subs int
			for _, c := range comps {
				sample.Add(c.Response())
				hits += c.CacheHits
				subs += c.SubRequests
			}
			cell := cellOut{rpm: rpm, mean: sample.Mean(), cdf: sample.Figure4CDF()}
			if subs > 0 {
				cell.hitFrac = float64(hits) / float64(subs)
			}
			cells = append(cells, cell)
		}
		parts[i] = sweepDigest(p.Name, cells)
	}
	return combine(parts), nil
}

// replayLayers accumulates the traced replay's per-layer busy times.
type replayLayers struct {
	tr                        *tracer
	next, serve, sink, engine time.Duration
	disk                      time.Duration
	requests, subs, hits      int64
	diskCalls, diskHits       int64
	traced, untraced          time.Duration
}

// replayTraced alternates an untraced sweep (core.RunFigure4StepsStream)
// with the same sweep rebuilt from the layers' public pieces — the trace
// stream, a sim.Engine with sim.Chain admission, Volume.Serve and the
// Figure-4 accumulators — with every call timed from here, then replays
// the identical member-disk I/O sequence through fresh disks to time
// Disk.Serve on its own.
func replayTraced(cfg config, params []trace.Params) (*outcome, error) {
	o := &outcome{}
	l := &replayLayers{tr: cfg.spans}
	var tracedParts, untracedParts []string
	deadline := time.Now().Add(cfg.seconds)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, p := range params {
			t0 := time.Now()
			res, err := core.RunFigure4StepsStream(p, steps(p), 1)
			l.untraced += time.Since(t0)
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			cells := make([]cellOut, 0, 4)
			for _, rpm := range steps(p) {
				c, err := l.tracedCell(p, rpm, o)
				if err != nil {
					return nil, err
				}
				cells = append(cells, c)
			}
			l.traced += time.Since(t0)
			for _, rpm := range steps(p) {
				if err := l.shadowDisks(p, rpm); err != nil {
					return nil, err
				}
			}
			if pass == 0 {
				tracedParts = append(tracedParts, sweepDigest(p.Name, cells))
				untracedParts = append(untracedParts, sweepDigest(p.Name, coreCells(res)))
			}
			o.attempted += int64(4 * p.Requests)
		}
	}
	if l.diskCalls != l.subs || l.diskHits != l.hits {
		o.violate("member-disk replay saw %d I/Os with %d cache hits, the volume reported %d and %d",
			l.diskCalls, l.diskHits, l.subs, l.hits)
	}
	o.digest = combine(tracedParts)
	o.ref = combine(untracedParts)

	n := float64(l.requests)
	raidSelf := l.serve - l.disk
	if raidSelf < 0 {
		raidSelf = 0
	}
	busy := l.next + l.serve + l.sink + l.engine
	v := map[string]float64{
		"trace.next_ns":               float64(l.next) / n,
		"raid.self_ns":                float64(raidSelf) / n,
		"raid.fanout":                 float64(l.subs) / n,
		"disksim.serve_ns":            float64(l.disk) / float64(l.diskCalls),
		"disksim.cache_hit_frac":      float64(l.hits) / float64(l.subs),
		"sim.engine_ns":               float64(l.engine) / n,
		"core.sink_ns":                float64(l.sink) / n,
		"bench.unattributed_frac":     float64(l.traced-busy) / float64(l.traced),
		"bench.tracing_overhead_frac": float64(l.traced-l.untraced) / float64(l.untraced),
	}
	o.metrics = perLayerMetrics(v)
	return o, nil
}

// tracedCell runs one Figure-4 cell through the layers' public pieces with
// every layer call timed, sampling spans every replaySampleEvery requests.
func (l *replayLayers) tracedCell(p trace.Params, rpm units.RPM, o *outcome) (cellOut, error) {
	tr := l.tr
	vol, err := p.BuildVolume(rpm)
	if err != nil {
		return cellOut{}, err
	}
	src, err := p.Stream(vol.Capacity())
	if err != nil {
		return cellOut{}, err
	}
	eng := sim.NewEngine()

	var mean stats.Running
	p95 := stats.MustP2(0.95)
	cdf := stats.NewFigure4Counts()
	var next, serve, sink time.Duration
	var hits, subs, n int64
	var failed error
	var nextAt, nextEnd int64 // the pending request's admission call

	timedSrc := sim.SourceFunc[raid.Request](func() (raid.Request, bool) {
		a := tr.now()
		r, ok := src.Next()
		b := tr.now()
		next += time.Duration(b - a)
		nextAt, nextEnd = a, b
		return r, ok
	})
	runStart := tr.now()
	sim.Chain(eng, timedSrc, func(r raid.Request) time.Duration { return r.Arrival },
		func(e *sim.Engine, r raid.Request) bool {
			na, ne := nextAt, nextEnd
			a := tr.now()
			c, err := vol.Serve(r)
			b := tr.now()
			if err != nil {
				failed = err
				e.Fail(err)
				return false
			}
			resp := c.Response()
			mean.Add(resp)
			p95.Add(resp)
			cdf.Add(resp)
			d := tr.now()
			serve += time.Duration(b - a)
			sink += time.Duration(d - b)
			hits += int64(c.CacheHits)
			subs += int64(c.SubRequests)
			n++
			if r.ID%replaySampleEvery == 0 {
				root := tr.record("sim.request", 0, r.ID, na, d)
				tr.record("trace.next", root, r.ID, na, ne)
				tr.record("raid.serve", root, r.ID, a, b)
				tr.record("core.sink", root, r.ID, b, d)
			} else {
				tr.skip(4)
			}
			return true
		}, nil)
	if err := eng.Run(); err != nil {
		return cellOut{}, fmt.Errorf("traced replay of %s at %v: %w", p.Name, rpm, err)
	}
	if failed != nil {
		return cellOut{}, failed
	}
	run := time.Duration(tr.now() - runStart)
	if n != int64(p.Requests) {
		o.violate("traced %s at %v completed %d of %d requests", p.Name, rpm, n, p.Requests)
	}
	l.next += next
	l.serve += serve
	l.sink += sink
	l.engine += run - next - serve - sink
	l.requests += n
	l.hits += hits
	l.subs += subs
	c := cellOut{rpm: rpm, mean: mean.Mean(), cdf: cdf.CDF()}
	if subs > 0 {
		c.hitFrac = float64(hits) / float64(subs)
	}
	return c, nil
}

// shadowDisks replays one cell's member-disk I/O sequence — the volume's
// own mapping, via Volume.Explode — through fresh member disks, timing
// each Disk.Serve. Member queues evolve only with their own I/O sequence,
// so the disks do exactly the work they did inside Volume.Serve.
func (l *replayLayers) shadowDisks(p trace.Params, rpm units.RPM) error {
	tr := l.tr
	vol, err := p.BuildVolume(rpm)
	if err != nil {
		return err
	}
	src, err := p.Stream(vol.Capacity())
	if err != nil {
		return err
	}
	disks := vol.Disks()
	for {
		r, ok := src.Next()
		if !ok {
			return nil
		}
		parts, err := vol.Explode(r)
		if err != nil {
			return err
		}
		sampled := r.ID%replaySampleEvery == 0
		for _, sb := range parts {
			a := tr.now()
			dc, err := disks[sb.Disk].Serve(sb.Request)
			b := tr.now()
			if err != nil {
				return fmt.Errorf("member-disk replay of %s at %v: %w", p.Name, rpm, err)
			}
			l.disk += time.Duration(b - a)
			l.diskCalls++
			if dc.CacheHit {
				l.diskHits++
			}
			if sampled {
				tr.record("disksim.serve", 0, r.ID, a, b)
			} else {
				tr.skip(1)
			}
		}
	}
}
