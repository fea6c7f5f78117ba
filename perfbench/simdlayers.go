package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/fleet"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/surrogate"
	"repro/internal/tournament"
	"repro/internal/trace"
	"repro/internal/units"
)

// directReps is how often the service probe repeats each pool spec's
// direct layer call for server.<kind>.run_ms.
const directReps = 3

// serviceProbe measures the service layers for a traced run, adding their
// per-layer values to v and any failed output check to o. It boots a
// journal-less daemon, warms it with every pool spec, and splits budget in
// two open-loop phases of the same seeded mix: the first on that daemon,
// with /metrics scraped around it and its jobs turned into spans; the
// second on a freshly booted journaled daemon, for the durable path. Then
// it measures the layers directly: each spec through the entry its runner
// calls, journal appends on a scratch journal, and the exact engine on the
// out-of-hull queries.
func serviceProbe(cfg config, budget time.Duration, o *outcome, v map[string]float64) error {
	ctx := context.Background()
	model, err := loadModel(cfg.root)
	if err != nil {
		return err
	}
	d, err := bootDaemon(cfg, model, false)
	if err != nil {
		return err
	}
	defer d.close() // error paths; success is checked below
	mx := mixSetup{d: d, model: model, pool: mixPool(cfg.seed, model)}
	if _, err := d.serveOnce(ctx, mx.pool); err != nil {
		return fmt.Errorf("service probe warm-up: %w", err)
	}
	half := budget / 2
	order := mixOrder(cfg.seed, len(mx.pool), int(half.Seconds()*simdRate)+1)
	m0, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	recs := d.openLoop(ctx, mx.pool, order, half)
	m1, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	jd, err := bootDaemon(cfg, model, true)
	if err != nil {
		return err
	}
	defer jd.close() // error paths; success is checked below
	if _, err := jd.serveOnce(ctx, mx.pool); err != nil {
		return fmt.Errorf("journaled warm-up: %w", err)
	}
	j0, err := jd.scrape(ctx)
	if err != nil {
		return err
	}
	journaled := jd.openLoop(ctx, mx.pool, order, half)
	j1, err := jd.scrape(ctx)
	if err != nil {
		return err
	}
	if err := jd.close(); err != nil {
		return fmt.Errorf("journaled daemon shutdown: %w", err)
	}
	all := append(append([]jobRec(nil), recs...), journaled...)
	if err := checkMix(ctx, mx, all, o); err != nil {
		return err
	}
	o.attempted += int64(len(all))
	o.failed += summarize(mx.pool, all).failed

	// Client side: the journal-less phase's per-job stamps, kept as spans.
	tr := cfg.spans
	var ttfb, body, lag, lat []float64
	perKind := map[string][]float64{}
	var answers, hits int
	var refused int64
	for i := range recs {
		r := &recs[i]
		if r.refused {
			refused++
		}
		if r.err != nil {
			continue
		}
		end := r.due.Add(r.latency())
		root := tr.record("client.job", 0, int64(i), tr.at(r.due), tr.at(end))
		tr.record("client.wait", root, int64(i), tr.at(r.due), tr.at(r.t.sent))
		tr.record("client.ttfb", root, int64(i), tr.at(r.t.sent), tr.at(r.t.first))
		tr.record("client.body", root, int64(i), tr.at(r.t.first), tr.at(end))
		ttfb = append(ttfb, ms(r.t.first.Sub(r.t.sent)))
		body = append(body, ms(end.Sub(r.t.first)))
		lag = append(lag, ms(r.t.sent.Sub(r.due)))
		lat = append(lat, ms(r.latency()))
		kind := mx.pool[r.spec].kind
		perKind[kind] = append(perKind[kind], ms(r.latency()))
		if kind == server.TypeSurrogate {
			answers += bytes.Count(r.body, []byte(`"kind":"answer"`))
			hits += bytes.Count(r.body, []byte(`"source":"surrogate"`))
		}
	}
	cs := summarize(mx.pool, recs)
	v["client.ttfb_ms"] = quantile(ttfb, 0.5)
	v["client.body_ms"] = quantile(body, 0.5)
	v["client.latency_p50_ms"] = cs.p50
	v["client.latency_p90_ms"] = cs.p90
	v["client.latency_p99_ms"] = quantile(lat, 0.99)
	v["client.latency_p99_samples"] = float64(len(lat))
	v["client.lag_ms"] = quantile(lag, 0.99)
	v["server.refused"] = float64(refused)
	for _, k := range jobKinds {
		v["server."+k+".p50_ms"] = quantile(perKind[k], 0.5)
	}
	if answers > 0 {
		v["surrogate.hit_frac"] = float64(hits) / float64(answers)
	}

	// Server: the /metrics deltas over the journal-less phase. Journal: the
	// journaled phase's counters and latency.
	v["server.http_p50_ms"] = histDeltaQuantile(m0, m1, "simd_http_latency_ms", "create_job", 0.5)
	js := summarize(mx.pool, journaled)
	done := float64(len(js.lat))
	appends := j1.count("simd_journal_appends_total") - j0.count("simd_journal_appends_total")
	jbytes := j1.count("simd_journal_bytes_total") - j0.count("simd_journal_bytes_total")
	v["journal.appends_per_job"] = float64(appends) / done
	v["journal.bytes_per_job"] = float64(jbytes) / done
	v["journal.latency_p50_ms"] = js.p50
	v["journal.latency_p90_ms"] = js.p90

	// Direct layer calls. One exact engine serves every direct surrogate
	// run, as simd's one installed engine serves every job; one call per
	// out-of-hull query warms it, as the warm-up jobs warmed the daemon's.
	exact, err := surrogate.NewExact(mx.model.ExactConfig())
	if err != nil {
		return err
	}
	outside := outOfHull(mx)
	for _, q := range outside {
		if _, err := exact.Solve(q); err != nil {
			return fmt.Errorf("exact engine warm-up: %w", err)
		}
	}
	for _, k := range jobKinds {
		var runs []float64
		for _, m := range mx.pool {
			if m.kind != k {
				continue
			}
			for rep := 0; rep < directReps; rep++ {
				t0 := time.Now()
				if err := directRun(ctx, m.spec, mx.model, exact); err != nil {
					return fmt.Errorf("direct %s run: %w", k, err)
				}
				runs = append(runs, ms(time.Since(t0)))
			}
		}
		v["server."+k+".run_ms"] = quantile(runs, 0.5)
	}
	if appends > 0 {
		appendMS, err := scratchAppends(cfg, int(jbytes/appends))
		if err != nil {
			return err
		}
		v["journal.append_ms"] = appendMS
	}
	fb, err := fallbackSolve(exact, outside)
	if err != nil {
		return err
	}
	v["surrogate.fallback_ms"] = fb
	if err := d.close(); err != nil {
		return fmt.Errorf("daemon shutdown: %w", err)
	}
	return nil
}

// at converts a wall-clock stamp to the tracer's nanosecond timeline.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.base)) }

// snapshot is one /metrics scrape.
type snapshot []obs.Metric

// scrape reads the daemon's /metrics in NDJSON form.
func (d *daemon) scrape(ctx context.Context) (snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics?format=ndjson", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: d.tp, Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	ms, err := obs.ReadNDJSON(resp.Body)
	return snapshot(ms), err
}

func (s snapshot) find(name, endpoint string) *obs.Metric {
	for i := range s {
		if s[i].Name == name && (endpoint == "" || s[i].Labels["endpoint"] == endpoint) {
			return &s[i]
		}
	}
	return nil
}

func (s snapshot) count(name string) int64 {
	if m := s.find(name, ""); m != nil {
		return m.Count
	}
	return 0
}

// histDeltaQuantile estimates a quantile of the observations a histogram
// gained between two scrapes, interpolating linearly inside the bucket.
func histDeltaQuantile(s0, s1 snapshot, name, endpoint string, q float64) float64 {
	h1 := s1.find(name, endpoint)
	if h1 == nil {
		return 0
	}
	counts := append([]int64(nil), h1.Counts...)
	if h0 := s0.find(name, endpoint); h0 != nil {
		for i := range counts {
			if i < len(h0.Counts) {
				counts[i] -= h0.Counts[i]
			}
		}
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h1.Edges[i-1]
		}
		hi := h1.Max
		if i < len(h1.Edges) {
			hi = h1.Edges[i]
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return h1.Max
}

// scratchAppends times journal.Append on a scratch journal next to the
// daemon's, with records of the given size, and returns the p50 in ms.
func scratchAppends(cfg config, size int) (float64, error) {
	dir, err := os.MkdirTemp(cfg.work, "journal-scratch-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	pad := size - 64 // the record's JSON framing around the one line
	if pad < 1 {
		pad = 1
	}
	rec := journal.Record{Kind: journal.KindChunk, Job: "perfbench", Lines: []string{strings.Repeat("x", pad)}}
	var lat []float64
	for i := 0; i < 100; i++ {
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			j.Close()
			return 0, fmt.Errorf("scratch journal append: %w", err)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return 0, err
	}
	return quantile(lat, 0.5), nil
}

// outOfHull lists the pool's surrogate queries that the model refuses,
// which simd answers with the exact engine.
func outOfHull(mx mixSetup) []surrogate.Query {
	var qs []surrogate.Query
	for _, m := range mx.pool {
		if m.kind != server.TypeSurrogate {
			continue
		}
		for _, q := range m.spec.Surrogate.Queries {
			if _, err := mx.model.Eval(q); errors.Is(err, surrogate.ErrOutOfHull) {
				qs = append(qs, q)
			}
		}
	}
	return qs
}

// fallbackSolve times exact.Solve, on a warmed engine, over the
// out-of-hull queries and returns the p50 in ms.
func fallbackSolve(exact *surrogate.Exact, qs []surrogate.Query) (float64, error) {
	var lat []float64
	for rep := 0; rep < directReps; rep++ {
		for _, q := range qs {
			t0 := time.Now()
			if _, err := exact.Solve(q); err != nil {
				return 0, err
			}
			lat = append(lat, ms(time.Since(t0)))
		}
	}
	return quantile(lat, 0.5), nil
}

// directRun runs one job spec through the layer entry point its simd
// runner calls, with the runner's defaults, minus decoding, journaling,
// queueing and streaming. Surrogate queries the model refuses go to exact,
// standing in for the daemon's installed fallback engine.
func directRun(ctx context.Context, s server.Spec, model *surrogate.Model, exact *surrogate.Exact) error {
	switch s.Type {
	case server.TypeRoadmap:
		r := s.Roadmap
		cfg := scaling.Config{FirstYear: r.FirstYear, LastYear: r.LastYear, Platters: r.Platters, Workers: 1}
		for _, sz := range r.PlatterSizes {
			cfg.PlatterSizes = append(cfg.PlatterSizes, units.Inches(sz))
		}
		_, err := scaling.Roadmap(cfg)
		return err
	case server.TypeSurrogate:
		for _, q := range s.Surrogate.Queries {
			if _, err := model.Eval(q); err != nil {
				if !errors.Is(err, surrogate.ErrOutOfHull) {
					return err
				}
				if _, err := exact.Solve(q); err != nil {
					return err
				}
			}
		}
		return nil
	case server.TypeDTM:
		d := s.DTM
		fx, err := newDTMFixture(0)
		if err != nil {
			return err
		}
		fx.seed, fx.rate = d.Seed, d.RatePerS
		p, err := newPolicy(fx, d.Policy)
		if err != nil {
			return err
		}
		_, err = p.stream(sim.NewEngine(), fx.source(d.Requests), &progressSink{})
		return err
	case server.TypeRAID:
		return directRAID(ctx, s.RAID)
	case server.TypeFigure4:
		f := s.Figure4
		w, err := trace.WorkloadByName(f.Workload)
		if err != nil {
			return err
		}
		w = w.WithRequests(f.Requests)
		var st []units.RPM
		for _, rpm := range f.RPMSteps {
			st = append(st, units.RPM(rpm))
		}
		_, err = core.RunFigure4StepsStreamCtx(ctx, w, st, 1, core.Observe{}, nil)
		return err
	case server.TypeFleet:
		f := s.Fleet
		_, err := fleet.Run(ctx, fleet.Config{
			Topology: fleet.Topology{Racks: f.Racks, ChassisPerRack: f.ChassisPerRack, SlotsPerChassis: f.SlotsPerChassis},
			Workload: fleet.Workload{RequestsPerDrive: f.RequestsPerDrive, HotFraction: f.HotFraction, Seed: f.Seed},
			Workers:  1,
		}, nil)
		return err
	case server.TypeTournament:
		t := s.Tournament
		_, err := tournament.Run(ctx, tournament.Config{
			Policies: t.Policies, Workloads: t.Workloads, Regimes: t.Regimes,
			Requests: t.Requests, Seed: t.Seed, Workers: 1,
		}, func(tournament.Cell) error { return nil })
		return err
	}
	return fmt.Errorf("no direct entry for job type %q", s.Type)
}

// directRAID is simd's raid runner without the emit and checkpoint plumbing.
func directRAID(ctx context.Context, r *server.RAIDSpec) error {
	w, err := trace.WorkloadByName(r.Workload)
	if err != nil {
		return err
	}
	w = w.WithRequests(r.Requests)
	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		return err
	}
	vol.Disks()[r.FailDisk].SetFaults(disksim.FailAfter{T: time.Duration(r.FailAtMS) * time.Millisecond})
	src, err := w.Stream(vol.Capacity())
	if err != nil {
		return err
	}
	var spares []*disksim.Disk
	if r.Spare {
		layout, err := w.MemberDiskLayout()
		if err != nil {
			return err
		}
		sp, err := disksim.New(disksim.Config{Layout: layout, RPM: w.BaselineRPM})
		if err != nil {
			return err
		}
		spares = append(spares, sp)
	}
	sess, err := raid.NewRecoverySession(vol, raid.RecoveryConfig{
		Reliability:     reliability.Default(),
		RebuildMBPerSec: r.RebuildMBPerSec,
	}, spares...)
	if err != nil {
		return err
	}
	if err := sess.RunStreamCtx(ctx, sim.NewEngine(), src, sim.Discard[raid.Completion]()); err != nil {
		return err
	}
	sess.Report()
	return nil
}
