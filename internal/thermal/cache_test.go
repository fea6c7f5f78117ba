package thermal

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/units"
)

// TestSteadyStateCacheEquivalence sweeps the roadmap's whole RPM range (the
// 2002 baseline through the 2012 1.6" requirement and beyond) across duties
// and ambients and requires the memoized solve to equal the direct solve
// bit for bit — twice, so the second pass reads every answer out of the
// cache.
func TestSteadyStateCacheEquivalence(t *testing.T) {
	cached, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct.NoCache = true

	var loads []Load
	for rpm := 500.0; rpm <= 250000; rpm *= 1.17 {
		for _, duty := range []float64{0, 0.37, 1} {
			for _, amb := range []units.Celsius{DefaultAmbient, DefaultAmbient - 10} {
				loads = append(loads, Load{RPM: units.RPM(rpm), VCMDuty: duty, Ambient: amb})
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, load := range loads {
			got, want := cached.SteadyState(load), direct.SteadyState(load)
			if got != want {
				t.Fatalf("pass %d, %+v: cached %v != direct %v", pass, load, got, want)
			}
		}
	}
	stats := cached.CacheStats()
	if stats.SteadyHits < int64(len(loads)) {
		t.Errorf("second pass should hit the cache for all %d loads, hits=%d", len(loads), stats.SteadyHits)
	}
	if stats.SteadyMisses != int64(len(loads)) {
		t.Errorf("first pass should miss exactly once per load (%d), misses=%d", len(loads), stats.SteadyMisses)
	}
}

// TestTransientCacheEquivalence runs the same transient trajectories on a
// cached and an uncached (NoCache) model: the per-speed step kernel and the
// conductance memoization must not perturb a single sub-step, whatever in
// the load changes between calls.
func TestTransientCacheEquivalence(t *testing.T) {
	// One call on a transient: Advance(load, d), or, with until set,
	// AdvanceUntil(load, d, until).
	type transientOp struct {
		load  Load
		d     time.Duration
		until func(State) bool
	}
	at := func(rpm units.RPM, duty float64) Load {
		return Load{RPM: rpm, VCMDuty: duty, Ambient: DefaultAmbient}
	}
	cycle := func(n int, d time.Duration, loads ...Load) []transientOp {
		ops := make([]transientOp, n)
		for i := range ops {
			ops[i] = transientOp{load: loads[i%len(loads)], d: d}
		}
		return ops
	}
	// Two speeds inside one conductance-cache bucket: a kernel keyed on the
	// quantized RPM would hand one the other's couplings.
	const near = units.RPM(24534)
	alias := near + units.RPM(rpmQuantum/8)
	if quantize(float64(near), rpmQuantum) != quantize(float64(alias), rpmQuantum) {
		t.Fatal("test premise broken: the two speeds landed in different buckets")
	}
	hot := func(s State) bool { return s.Air >= 40 }
	cool := func(s State) bool { return s.Air <= 36 }
	cases := []struct {
		name string
		tda  bool // TemperatureDependentAir on both models
		ops  []transientOp
	}{
		// The handful of operating points a DTM controller visits: busy at
		// speed, idle, throttled low speed.
		{"busy-idle-throttled", false, cycle(60, 750*time.Millisecond,
			at(15000, 1), at(15000, 0), at(9000, 0))},
		// RPM steps mid-trajectory, down to the offline load's RPM 0.
		{"rpm-steps-and-offline", false, cycle(48, 40*time.Millisecond,
			at(24534, 1), at(24534, 0), at(15020, 1), at(0, 0), at(15020, 0), at(24534, 1))},
		{"rpm-quantum-alias", false, cycle(40, 30*time.Millisecond, at(near, 1), at(alias, 1))},
		// Seek-fraction duties (SeekDuty, fleet) and the clamped range.
		{"fractional-and-out-of-range-duty", false, cycle(36, 20*time.Millisecond,
			at(24534, 0.37), at(24534, 0.2718), at(24534, -0.25), at(24534, 1.5), at(24534, 0), at(24534, 1))},
		// A cooling-failure window: new ambients at an unchanged RPM.
		{"ambient-change", false, cycle(8, 2*time.Second,
			at(24534, 1), Load{RPM: 24534, VCMDuty: 1, Ambient: 40}, at(24534, 1), Load{RPM: 24534, VCMDuty: 1, Ambient: 16})},
		// Spans below, at and above one 100 ms step.
		{"advance-spans", false, []transientOp{
			{load: at(24534, 1), d: time.Nanosecond},
			{load: at(24534, 0), d: time.Millisecond},
			{load: at(24534, 1), d: 99 * time.Millisecond},
			{load: at(15020, 1), d: 100 * time.Millisecond},
			{load: at(15020, 0), d: 101 * time.Millisecond},
			{load: at(24534, 1), d: 250 * time.Millisecond},
			{load: at(24534, 0), d: 3 * time.Second},
			{load: at(24534, 1), d: 2*time.Minute + 7*time.Millisecond},
		}},
		{"advance-until", false, []transientOp{
			{load: at(24534, 1), d: time.Hour, until: hot},
			{load: at(24534, 1), d: time.Hour, until: hot}, // already true
			{load: at(15020, 0), d: time.Hour, until: cool},
			{load: at(15020, 0), d: 2 * time.Second, until: func(s State) bool { return s.Air > 1000 }},
			{load: at(24534, 1), d: 10 * time.Millisecond},
		}},
		// Film-temperature air keeps the uncached per-step solve; it must
		// match its NoCache twin while the film warms.
		{"temperature-dependent-air", true, cycle(60, 750*time.Millisecond,
			at(24534, 1), at(24534, 0), at(15020, 0.5))},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cached, err := New(ReferenceDrive)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := New(ReferenceDrive)
			if err != nil {
				t.Fatal(err)
			}
			direct.NoCache = true
			cached.TemperatureDependentAir = c.tda
			direct.TemperatureDependentAir = c.tda

			trC := cached.NewTransient(Uniform(DefaultAmbient))
			trD := direct.NewTransient(Uniform(DefaultAmbient))
			for i, op := range c.ops {
				if op.until == nil {
					trC.Advance(op.load, op.d)
					trD.Advance(op.load, op.d)
				} else {
					eC, okC := trC.AdvanceUntil(op.load, op.d, op.until)
					eD, okD := trD.AdvanceUntil(op.load, op.d, op.until)
					if eC != eD || okC != okD {
						t.Fatalf("op %d: AdvanceUntil cached (%v, %v) != direct (%v, %v)", i, eC, okC, eD, okD)
					}
				}
				if trC.State() != trD.State() || trC.Now() != trD.Now() {
					t.Fatalf("op %d (%+v for %v): cached %v at %v != direct %v at %v",
						i, op.load, op.d, trC.State(), trC.Now(), trD.State(), trD.Now())
				}
			}
		})
	}
}

// TestCondStatsCountKernelBuilds pins what the conductance counters count:
// one lookup per step-kernel build (one per RPM change per transient) plus
// one per uncached steady solve, however many sub-steps run in between.
func TestCondStatsCountKernelBuilds(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	tr := m.NewTransient(Uniform(DefaultAmbient))
	for i := 0; i < 1000; i++ {
		rpm := units.RPM(24534)
		if i == 500 {
			rpm = 15020
		}
		tr.Advance(Load{RPM: rpm, VCMDuty: float64(i & 1), Ambient: DefaultAmbient}, 3*time.Millisecond)
	}
	// Builds at 24534 (miss), 15020 (miss) and 24534 again (hit).
	if s := m.CacheStats(); s.CondHits != 1 || s.CondMisses != 2 {
		t.Errorf("one transient, two RPM changes: %+v, want 1 cond hit, 2 misses", s)
	}
	// A new transient builds its own kernel from the model's shared cache.
	m.NewTransient(Uniform(DefaultAmbient)).Advance(WorstCase(15020), time.Minute)
	// A steady solve looks the couplings up once; its memoized repeat not at all.
	m.SteadyState(WorstCase(9000))
	m.SteadyState(WorstCase(9000))
	if s := m.CacheStats(); s.CondHits != 2 || s.CondMisses != 3 {
		t.Errorf("after a second transient and a steady solve: %+v, want 2 cond hits, 3 misses", s)
	}
}

// TestCacheConcurrentReaders hammers one shared model from many goroutines
// (the roadmap grid shares a model per platter size); run with -race.
func TestCacheConcurrentReaders(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SteadyState(WorstCase(15000))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := m.SteadyState(WorstCase(15000)); got != want {
					t.Errorf("concurrent read diverged: %v != %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheStatsConcurrent reads the hit/miss counters while writers are
// still hammering the cache: CacheStats and ResetCacheStats must be safe to
// call mid-sweep (the counters are atomics), and the totals must balance
// once the writers join; run with -race.
func TestCacheStatsConcurrent(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, iters = 8, 200
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader: must not race with the writers
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := m.CacheStats()
				if s.SteadyHits < 0 || s.SteadyMisses < 0 {
					t.Error("counter went negative")
					return
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				m.SteadyState(WorstCase(units.RPM(9000 + 1500*(g%3))))
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	reader.Wait()
	s := m.CacheStats()
	if got := s.SteadyHits + s.SteadyMisses; got != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d", got, goroutines*iters)
	}
	m.ResetCacheStats()
	if s := m.CacheStats(); s != (CacheStats{}) {
		t.Errorf("after reset: %+v", s)
	}
}

// TestExportCache publishes the counters to a registry and checks the gauge
// values and that re-exporting overwrites rather than accumulates.
func TestExportCache(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	m.SteadyState(WorstCase(15000))
	m.SteadyState(WorstCase(15000))
	reg := obs.NewRegistry()
	m.ExportCache(reg, "drive", "ref")
	m.ExportCache(reg, "drive", "ref") // idempotent: gauges overwrite
	find := func(name string) float64 {
		t.Helper()
		for _, mt := range reg.Snapshot() {
			if mt.Name == name && mt.Value != nil {
				return *mt.Value
			}
		}
		t.Fatalf("series %s not found", name)
		return 0
	}
	if hits := find("thermal_cache_steady_hits"); hits != 1 {
		t.Errorf("steady hits gauge = %v, want 1", hits)
	}
	if misses := find("thermal_cache_steady_misses"); misses != 1 {
		t.Errorf("steady misses gauge = %v, want 1", misses)
	}
	var nilModelSafe *obs.Registry
	m.ExportCache(nilModelSafe) // nil registry is a no-op
}

// TestCacheAliasFallsThrough: two distinct loads inside one quantization
// bucket must each get their own direct answer — the second must not read
// the first's entry.
func TestCacheAliasFallsThrough(t *testing.T) {
	cached, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	direct.NoCache = true

	a := Load{RPM: 15000, VCMDuty: 1, Ambient: DefaultAmbient}
	b := a
	b.RPM += units.RPM(rpmQuantum / 8) // same bucket, different exact point
	if steadyKey(a, false) != steadyKey(b, false) {
		t.Fatalf("test premise broken: loads landed in different buckets")
	}
	if got, want := cached.SteadyState(a), direct.SteadyState(a); got != want {
		t.Fatalf("load a: %v != %v", got, want)
	}
	if got, want := cached.SteadyState(b), direct.SteadyState(b); got != want {
		t.Fatalf("aliased load b leaked a's cache entry: %v != %v", got, want)
	}
}

// TestSolve4Singular pins the degenerate-geometry contract: a singular
// system reports ok=false instead of silently returning zeros.
func TestSolve4Singular(t *testing.T) {
	cases := []struct {
		name string
		a    [4][4]float64
	}{
		{"all-zero", [4][4]float64{}},
		{"duplicate-rows", [4][4]float64{
			{1, 2, 3, 4},
			{1, 2, 3, 4},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
		}},
		{"zero-column", [4][4]float64{
			{1, 0, 3, 4},
			{2, 0, 1, 0},
			{3, 0, 0, 1},
			{4, 0, 2, 2},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, ok := solve4(c.a, [4]float64{1, 2, 3, 4}); ok {
				t.Error("singular system reported ok=true")
			}
		})
	}

	// And a well-conditioned identity still solves.
	id := [4][4]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	x, ok := solve4(id, [4]float64{1, 2, 3, 4})
	if !ok || x != [4]float64{1, 2, 3, 4} {
		t.Errorf("identity solve failed: %v ok=%v", x, ok)
	}
}

// TestValidatedModelNeverSingular: across the full roadmap operating range,
// a validated model's steady temperatures are always finite — the clamped
// conductance floors keep the matrix nonsingular.
func TestValidatedModelNeverSingular(t *testing.T) {
	m, err := New(ReferenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	for _, rpm := range []units.RPM{0, 1, 500, 15000, 143470, 2e6} {
		st := m.SteadyState(Load{RPM: rpm, VCMDuty: 1, Ambient: DefaultAmbient})
		for _, v := range []float64{float64(st.Air), float64(st.Spindle), float64(st.Base), float64(st.Actuator)} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("rpm %v: non-finite steady state %v", rpm, st)
			}
		}
	}
}
