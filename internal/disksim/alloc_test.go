package disksim

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestEnabledInstrumentsServeAllocsNothing extends the obs package's
// "disabled means free" pin to the enabled-registry path: a Disk with a
// live Instruments set attached must still serve requests — cache misses,
// cache hits and writes — without a single allocation. The handles are
// pre-resolved at NewInstruments time; nothing on the record path may
// rebuild labels or box values.
func TestEnabledInstrumentsServeAllocsNothing(t *testing.T) {
	d := testDisk(t, 10000)
	reg := obs.NewRegistry()
	d.SetInstruments(NewInstruments(reg, len(d.Layout().Zones), "disk", "0"))

	total := d.Layout().TotalSectors()
	lbns := []int64{0, total / 3, total / 2, total - 64}
	id := int64(0)
	serve := func(lbn int64, write bool) {
		id++
		if _, err := d.Serve(Request{ID: id, Arrival: d.ReadyTime(), LBN: lbn, Sectors: 8, Write: write}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: touch every path once (cold misses, a re-read hit, a write)
	// so lazily-grown state — cache segments, histogram buckets — exists
	// before measurement.
	for _, lbn := range lbns {
		serve(lbn, false)
		serve(lbn, false) // second read of the range: cache hit
		serve(lbn, true)
	}

	i := 0
	if n := testing.AllocsPerRun(300, func() {
		lbn := lbns[i%len(lbns)]
		serve(lbn, false)
		serve(lbn, false)
		serve(lbn, i%2 == 0)
		i++
	}); n != 0 {
		t.Fatalf("instrumented Serve allocates %v per run, want 0", n)
	}
}

// TestRunStreamAllocsNothingPerRequest pins RunStream's admission at zero
// allocations per request: a run of 2N requests allocates exactly what a
// run of N does, so everything the stream allocates is per run (the disk,
// the engine, the admission state).
func TestRunStreamAllocsNothingPerRequest(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			d := testDisk(t, 10000)
			total := d.Layout().TotalSectors()
			i := 0
			src := sim.SourceFunc[Request](func() (Request, bool) {
				if i == n {
					return Request{}, false
				}
				i++
				return Request{ID: int64(i), Arrival: time.Duration(i) * time.Millisecond,
					LBN: int64(i) * 7919 % (total - 8), Sectors: 8, Write: i%3 == 0}, true
			})
			if err := d.RunStream(sim.NewEngine(), src, sim.Discard[Completion]()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n, n2 := allocs(500), allocs(1000); n != n2 {
		t.Fatalf("RunStream allocates %v for 500 requests and %v for 1000, want equal", n, n2)
	}
}

// TestFracMatchesMod pins the exactness argument behind the hot path's
// frac(x) = x - Trunc(x) rewrite: for every finite non-negative x, fmod by
// 1 reduces to exactly the same subtraction (both operations are IEEE-754
// exact), so the two must agree bit for bit — including the huge
// time-over-period ratios a long simulated run produces.
func TestFracMatchesMod(t *testing.T) {
	xs := []float64{
		0, 0.25, 0.5, 1, 1.75, 3.0000000000000004,
		1e3 + 1.0/3, 1e6 + 0.123456789, 1e9 + 0.999999999,
		1e15 + 0.5, 1e16, 4.503599627370497e15, // past 2^52: fraction exactly 0
	}
	// A deterministic xorshift sweep across magnitudes.
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		mant := float64(s>>11) / float64(1<<53) // [0,1)
		xs = append(xs, mant*float64(uint64(1)<<(i%60)))
	}
	for _, x := range xs {
		got := frac(x)
		want := math.Mod(x, 1)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("frac(%g) = %g (bits %x), math.Mod = %g (bits %x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestSetRPMRefreshesTimingCaches pins the cache-invalidation contract of
// the hoisted revolution time: a disk whose speed is changed via SetRPM
// must serve exactly like a disk constructed at that speed.
func TestSetRPMRefreshesTimingCaches(t *testing.T) {
	changed := testDisk(t, 15000)
	if err := changed.SetRPM(5400); err != nil {
		t.Fatal(err)
	}
	fresh := testDisk(t, 5400)

	if changed.period() != fresh.period() {
		t.Fatalf("period after SetRPM = %v, fresh disk = %v", changed.period(), fresh.period())
	}
	mid := fresh.Layout().TotalSectors() / 2
	for i, lbn := range []int64{0, mid, mid + 1000, fresh.Layout().TotalSectors() - 512} {
		r := Request{ID: int64(i), LBN: lbn, Sectors: 256}
		a, err := changed.Serve(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Serve(r)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("request %d: SetRPM disk served %+v, fresh disk %+v", i, a, b)
		}
	}
}
