package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/surrogate"
	"repro/internal/tournament"
	"repro/internal/trace"
)

// The service probe: an in-process simd with the golden surrogate model
// preloaded, driven open-loop at one fixed offered rate by one generator
// over at most simdConns connections. Every job is a synchronous submission
// drawn from a seeded pool of small specs covering all seven job kinds. The
// traced dtm-policies run runs it to measure the client, server, journal
// and surrogate layers.
//
// It is not a benchmark workload of its own. On a 2-core host with shared
// disks its open-loop latency swung from minute to minute: IQR/median
// over ten seeds reached 0.27 (p50) and 0.56 (p90) even with the journal
// off, and more with it on. No end-to-end bound could hold on that.

const (
	// simdRate is the offered rate in jobs per second, well below the
	// journaled service's knee on a 2-core host.
	simdRate = 100.0

	// simdConns bounds the generator's connections (and sender goroutines)
	// to the host's 2 cores.
	simdConns = 2

	// simdWorkers is the daemon's worker pool size.
	simdWorkers = 2

	// modelPath is the preloaded surrogate model, relative to the root.
	modelPath = "testdata/golden/surrogate_model.surm"

	// submitTimeout bounds one submission.
	submitTimeout = 30 * time.Second
)

// mixSpec is one pool entry: a job spec plus what the checks and metrics
// need to know about it.
type mixSpec struct {
	kind        string
	spec        server.Spec
	simRequests int64 // simulated requests the job runs
}

// terminalKind is the "kind" of each job type's closing NDJSON line.
var terminalKind = map[string]string{
	"roadmap": "summary", "surrogate": "summary", "dtm": "result", "raid": "report",
	"figure4": "workload", "fleet": "summary", "tournament": "summary",
}

// mixPool draws the job specs from the seed. Every kind appears; the drawn
// values (years, seeds, failure times, query points) leave each spec's
// cost about the same from seed to seed, so the mix's cost profile is
// stable while its inputs change.
func mixPool(seed int64, model *surrogate.Model) []mixSpec {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "simd-mix.specs", 0)))
	var pool []mixSpec
	addSpec := func(sim int64, s server.Spec) {
		pool = append(pool, mixSpec{kind: s.Type, spec: s, simRequests: sim})
	}
	sizes := []float64{2.6, 2.1, 1.6}
	for i := 0; i < 3; i++ {
		first := 2002 + rng.Intn(8)
		addSpec(0, server.Spec{Type: server.TypeRoadmap, Roadmap: &server.RoadmapSpec{
			FirstYear: first, LastYear: first + 2, PlatterSizes: []float64{sizes[i]}, Platters: 1,
		}})
	}
	exactReqs := int64(model.ExactConfig().Requests)
	if exactReqs == 0 {
		exactReqs = surrogate.DefaultRequests
	}
	for i := 0; i < 4; i++ {
		qs := make([]surrogate.Query, 8)
		for j := range qs {
			qs[j] = hullQuery(rng, model, j == len(qs)-1)
		}
		addSpec(exactReqs, server.Spec{Type: server.TypeSurrogate, Surrogate: &server.SurrogateSpec{Mode: "query", Queries: qs}})
	}
	for _, pol := range []string{"envelope", "watermark", "slack-ramp", "drpm", "escalation"} {
		addSpec(1500, server.Spec{Type: server.TypeDTM, DTM: &server.DTMSpec{
			Policy: pol, Requests: 1500, RatePerS: 120, Seed: 1 + rng.Int63n(1<<40),
		}})
	}
	for _, w := range []string{"TPC-C", "OLTP Application"} {
		addSpec(1000, server.Spec{Type: server.TypeRAID, RAID: &server.RAIDSpec{
			Workload: w, Requests: 1000, FailDisk: rng.Intn(3), FailAtMS: 1000 + rng.Int63n(3000), Spare: rng.Intn(2) == 0,
		}})
	}
	for _, w := range []string{"Search-Engine", "TPC-H"} {
		base := 7200.0
		if p, err := trace.WorkloadByName(w); err == nil {
			base = float64(p.BaselineRPM)
		}
		steps := []float64{base}
		for k := 1; k < 4; k++ {
			steps = append(steps, base+float64(k)*5000+float64(rng.Intn(11)-5)*100)
		}
		addSpec(400*4, server.Spec{Type: server.TypeFigure4, Figure4: &server.Figure4Spec{
			Workload: w, Requests: 400, RPMSteps: steps,
		}})
	}
	// One fleet spec only: a fleet job costs a fixed few milliseconds at any
	// size, and a slowest kind near 10% of the mix would put the p90 on the
	// edge of its own latency cluster.
	drives, perDrive := 2*4, 20
	addSpec(int64(drives*perDrive), server.Spec{Type: server.TypeFleet, Fleet: &server.FleetSpec{
		Racks: 1, ChassisPerRack: 2, SlotsPerChassis: 4, RequestsPerDrive: perDrive, Seed: 1 + rng.Int63n(1<<40),
	}})
	for i, pol := range tournament.DefaultPolicies {
		w := trace.Workloads[(i+rng.Intn(2))%len(trace.Workloads)].Name
		addSpec(400, server.Spec{Type: server.TypeTournament, Tournament: &server.TournamentSpec{
			Policies: []string{pol}, Workloads: []string{w}, Regimes: []string{"clean"}, Requests: 400, Seed: 1 + rng.Int63n(1<<40),
		}})
	}
	return pool
}

// hullQuery draws a query inside the model's grid, or (outside) just
// above its top RPM node so it falls back to the exact engine.
func hullQuery(rng *rand.Rand, m *surrogate.Model, outside bool) surrogate.Query {
	lo, hi := m.RPMs[0], m.RPMs[len(m.RPMs)-1]
	first, last := m.Years[0], m.Years[len(m.Years)-1]
	hw := m.Hardware[rng.Intn(len(m.Hardware))]
	q := surrogate.Query{
		Year:       first + rng.Intn(last-first+1),
		RPM:        lo + float64(rng.Intn(int(hi-lo)/100+1))*100,
		Platters:   hw.Platters,
		FormFactor: hw.FormFactor,
		Workload:   m.Workloads[rng.Intn(len(m.Workloads))],
	}
	if outside {
		q.Year = m.Years[rng.Intn(len(m.Years))]
		q.RPM = hi + float64(1+rng.Intn(20))*100
	}
	return q
}

// mixOrder lays the pool out n times, each cycle a fresh seeded
// permutation, so every spec runs equally often in any window of whole
// cycles.
func mixOrder(seed int64, poolLen, n int) []int {
	rng := rand.New(rand.NewSource(deriveSeed(seed, "simd-mix.order", 0)))
	out := make([]int, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(poolLen) {
			if len(out) == n {
				break
			}
			out = append(out, i)
		}
	}
	return out
}

// loadModel reads and decodes the golden surrogate model.
func loadModel(root string) (*surrogate.Model, error) {
	data, err := os.ReadFile(filepath.Join(root, modelPath))
	if err != nil {
		return nil, err
	}
	return surrogate.Decode(data)
}

// daemon is one in-process simd plus the benchmark's client for it.
type daemon struct {
	srv  *server.Server
	dir  string // journal directory ("" for a journal-less daemon)
	base string
	tp   *http.Transport
	cl   *client.Client

	closed bool
}

// bootDaemon starts simd on 127.0.0.1:0. A journaled daemon gets a fresh
// journal directory under the checkout's scratch area, removed by close.
func bootDaemon(cfg config, model *surrogate.Model, journaled bool) (*daemon, error) {
	d := &daemon{}
	scfg := server.Config{
		Addr:           "127.0.0.1:0",
		Workers:        simdWorkers,
		SurrogateModel: model,
		Logf:           func(format string, args ...any) { fmt.Fprintf(cfg.log, "simd: "+format+"\n", args...) },
	}
	if journaled {
		dir, err := os.MkdirTemp(cfg.work, "simd-journal-")
		if err != nil {
			return nil, err
		}
		d.dir, scfg.JournalDir = dir, dir
	}
	srv, err := server.New(scfg)
	if err != nil {
		d.removeDir()
		return nil, fmt.Errorf("boot: %w", err)
	}
	if err := srv.Start(); err != nil {
		shutdownServer(srv)
		d.removeDir()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.srv, d.base = srv, "http://"+srv.Addr()
	d.tp = &http.Transport{MaxConnsPerHost: simdConns, MaxIdleConnsPerHost: simdConns, DisableCompression: true}
	d.cl = client.New(d.base, client.Options{
		HTTPClient: &http.Client{Transport: &timingTransport{base: d.tp}},
		Retry:      client.RetryPolicy{MaxAttempts: 1},
		Breaker:    client.BreakerPolicy{Threshold: -1},
		Seed:       1,
	})
	return d, nil
}

func (d *daemon) removeDir() error {
	if d.dir == "" {
		return nil
	}
	return os.RemoveAll(d.dir)
}

func shutdownServer(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// close drains the daemon, closes the client's connections and removes
// the journal directory. Closing twice is a no-op.
func (d *daemon) close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	err := shutdownServer(d.srv)
	d.tp.CloseIdleConnections()
	if rerr := d.removeDir(); err == nil {
		err = rerr
	}
	return err
}

// jobTiming is filled in by timingTransport for one submission: when the
// request went out, when the first body byte arrived, when the body ended.
type jobTiming struct {
	sent, first, end time.Time
}

type timingKey struct{}

// timingTransport stamps a submission's request and response-body events
// into the jobTiming carried by its context.
type timingTransport struct{ base http.RoundTripper }

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	jt, _ := req.Context().Value(timingKey{}).(*jobTiming)
	if jt != nil {
		jt.sent = time.Now()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || jt == nil {
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, jt: jt}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	jt *jobTiming
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	now := time.Now()
	if n > 0 && b.jt.first.IsZero() {
		b.jt.first = now
	}
	if err == io.EOF && b.jt.end.IsZero() {
		b.jt.end = now
	}
	return n, err
}

// jobRec is one scheduled job's outcome.
type jobRec struct {
	spec    int
	due     time.Time
	t       jobTiming
	done    time.Time // Submit returned
	body    []byte
	err     error
	refused bool
}

func (r *jobRec) latency() time.Duration {
	end := r.t.end
	if end.IsZero() {
		end = r.done
	}
	return end.Sub(r.due)
}

// submit runs one synchronous submission, filling rec.
func (d *daemon) submit(ctx context.Context, s server.Spec, rec *jobRec) {
	ctx, cancel := context.WithTimeout(context.WithValue(ctx, timingKey{}, &rec.t), submitTimeout)
	defer cancel()
	rec.body, rec.err = d.cl.Submit(ctx, s, "")
	rec.done = time.Now()
	var se *client.StatusError
	if errors.As(rec.err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
		rec.refused = true
	}
}

// serveOnce submits every pool spec once, in order, and returns the bodies.
func (d *daemon) serveOnce(ctx context.Context, pool []mixSpec) ([][]byte, error) {
	out := make([][]byte, len(pool))
	for i, m := range pool {
		var rec jobRec
		d.submit(ctx, m.spec, &rec)
		if rec.err != nil {
			return nil, fmt.Errorf("%s job %d: %w", m.kind, i, rec.err)
		}
		out[i] = rec.body
	}
	return out, nil
}

// openLoop submits jobs on a fixed schedule — job i is due at
// start + i/rate — for dur, over simdConns sender goroutines. A job whose
// senders are all busy waits, and that wait counts in its latency.
func (d *daemon) openLoop(ctx context.Context, pool []mixSpec, order []int, dur time.Duration) []jobRec {
	n := int(dur.Seconds() * simdRate)
	if n < 1 {
		n = 1
	}
	if n > len(order) {
		n = len(order)
	}
	recs := make([]jobRec, n)
	gap := time.Duration(float64(time.Second) / simdRate)
	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < simdConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				d.submit(ctx, pool[recs[i].spec].spec, &recs[i])
			}
		}()
	}
	for i := range recs {
		recs[i].spec = order[i]
		recs[i].due = start.Add(time.Duration(i) * gap)
		if wait := time.Until(recs[i].due); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return recs
}

// lastLine returns the final non-empty line of an NDJSON body.
func lastLine(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		return body[i+1:]
	}
	return body
}

// checkTerminal reports whether a body closes with its kind's terminal line.
func checkTerminal(kind string, body []byte) error {
	var line struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(lastLine(body), &line); err != nil {
		return fmt.Errorf("%s body's last line is not JSON: %v", kind, err)
	}
	if want := terminalKind[kind]; line.Kind != want {
		return fmt.Errorf("%s body ends in a %q line, want %q", kind, line.Kind, want)
	}
	return nil
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// mixSetup is a warmed daemon with its model and job pool.
type mixSetup struct {
	d     *daemon
	model *surrogate.Model
	pool  []mixSpec
}

// simdWindows is how many consecutive windows of the schedule the latency
// quantiles are taken over; the reported figure is their median, so a
// minority of windows on a slowed host does not move it.
const simdWindows = 10

// mixSummary is the open-loop phase reduced to the end-to-end figures.
type mixSummary struct {
	lat                  []float64 // ms, completed jobs in schedule order
	p50, p90             float64   // median over windows of each window's quantile
	windowP50s           []float64
	failed               int64
	jobsPerS, simReqPerS float64
}

func summarize(pool []mixSpec, recs []jobRec) mixSummary {
	var s mixSummary
	var last time.Time
	var simReqs int64
	windows := make([][]float64, simdWindows)
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			s.failed++
			continue
		}
		l := ms(r.latency())
		s.lat = append(s.lat, l)
		w := i * simdWindows / len(recs)
		windows[w] = append(windows[w], l)
		simReqs += pool[r.spec].simRequests
		if end := r.due.Add(r.latency()); end.After(last) {
			last = end
		}
	}
	if span := last.Sub(recs[0].due).Seconds(); span > 0 {
		s.jobsPerS = float64(len(s.lat)) / span
		s.simReqPerS = float64(simReqs) / span
	}
	var p50s, p90s []float64
	for _, w := range windows {
		if len(w) >= 20 {
			p50s = append(p50s, quantile(w, 0.5))
			p90s = append(p90s, quantile(w, 0.9))
		}
	}
	if len(p50s) == 0 { // a short phase: one window
		p50s, p90s = []float64{quantile(s.lat, 0.5)}, []float64{quantile(s.lat, 0.9)}
	}
	s.p50, s.p90 = median(p50s), median(p90s)
	s.windowP50s = p50s
	return s
}

// checkMix verifies the open-loop phases' outputs: every completed job's
// body equals the body the same spec gets when served again afterwards,
// which ends in its kind's terminal line, and the surrogate's fallback
// answers equal the forced-exact answers to the same queries.
func checkMix(ctx context.Context, mx mixSetup, recs []jobRec, o *outcome) error {
	first := make([][]byte, len(mx.pool))
	for i := range recs {
		r := &recs[i]
		kind := mx.pool[r.spec].kind
		if r.err != nil {
			continue // counted as failed, not as a wrong output
		}
		if first[r.spec] == nil {
			first[r.spec] = r.body
		} else if !bytes.Equal(r.body, first[r.spec]) {
			o.violate("%s job %d (spec %d) body differs from the spec's first body", kind, i, r.spec)
		}
	}
	again, err := mx.d.serveOnce(ctx, mx.pool)
	if err != nil {
		return fmt.Errorf("re-serve: %w", err)
	}
	got, ref := newDigest(), newDigest()
	for i, m := range mx.pool {
		body := first[i]
		if body == nil {
			body = again[i] // not scheduled in a short phase
		}
		got.u64(hashBody(body))
		ref.u64(hashBody(again[i]))
		if err := checkTerminal(m.kind, again[i]); err != nil {
			o.violate("spec %d: %v", i, err)
		}
		if m.kind == server.TypeSurrogate {
			if err := checkFallback(ctx, mx.d, m, again[i], o); err != nil {
				return err
			}
		}
	}
	if got.hex() != ref.hex() {
		o.violate("service probe bodies digest %s, re-served bodies %s", got.hex(), ref.hex())
	}
	return nil
}

// checkFallback serves a surrogate query spec again with Exact forced and
// requires every exact-sourced (fallback) answer line of the normal body to
// be byte-identical to the forced-exact line for the same query.
func checkFallback(ctx context.Context, d *daemon, m mixSpec, body []byte, o *outcome) error {
	forced := m.spec
	sp := *forced.Surrogate
	sp.Exact = true
	forced.Surrogate = &sp
	var rec jobRec
	d.submit(ctx, forced, &rec)
	if rec.err != nil {
		return fmt.Errorf("forced-exact surrogate job: %w", rec.err)
	}
	normal := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))
	exact := bytes.Split(bytes.TrimRight(rec.body, "\n"), []byte("\n"))
	if len(normal) != len(exact) {
		o.violate("surrogate body has %d lines, forced-exact body %d", len(normal), len(exact))
		return nil
	}
	fallbacks, hits := 0, 0
	for i := 0; i < len(sp.Queries); i++ {
		switch {
		case bytes.Contains(normal[i], []byte(`"source":"exact"`)):
			fallbacks++
			if !bytes.Equal(normal[i], exact[i]) {
				o.violate("surrogate fallback answer %d differs from the forced-exact answer", i)
			}
		case bytes.Contains(normal[i], []byte(`"source":"surrogate"`)):
			hits++
		}
	}
	if fallbacks == 0 || hits == 0 {
		o.violate("surrogate spec served %d hits and %d fallbacks, want some of each", hits, fallbacks)
	}
	return nil
}
