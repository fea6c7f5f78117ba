package raid

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// TestInstrumentedServeAllocsNothingSteadyState pins the volume hot path at
// zero steady-state allocations with a live metrics registry attached: once
// the reusable sub-request buffer has grown to the workload's fan-out and
// the member caches are warm, Volume.Serve — mapping, member service,
// slowest-sub join and metric recording — must not allocate.
func TestInstrumentedServeAllocsNothingSteadyState(t *testing.T) {
	for _, level := range []Level{JBOD, RAID0, RAID5, RAID1} {
		t.Run(level.String(), func(t *testing.T) {
			n := 4
			if level == RAID1 {
				n = 2
			}
			v := testVolume(t, level, n)
			reg := obs.NewRegistry()
			v.Instrument(reg, "vol", level.String())

			id := int64(0)
			arrival := time.Duration(0)
			serve := func(write bool) {
				id++
				arrival += time.Millisecond
				r := Request{ID: id, Arrival: arrival, Block: (id * 97) % (v.Capacity() - 64), Sectors: 16, Write: write}
				if _, err := v.Serve(r); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 32; i++ { // warm-up: scratch buffer, caches, histograms
				serve(i%2 == 0)
			}
			i := 0
			if allocs := testing.AllocsPerRun(200, func() {
				serve(i%2 == 0)
				i++
			}); allocs != 0 {
				t.Fatalf("instrumented %v Serve allocates %v per run, want 0", level, allocs)
			}
		})
	}
}

// streamAllocs returns what one run of n requests through run allocates,
// with a fresh volume each run. The source yields the same requests on
// every run without allocating.
func streamAllocs(t *testing.T, n int, run func(v *Volume, src sim.Source[Request]) error) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		v := testVolume(t, RAID5, 4)
		i := 0
		src := sim.SourceFunc[Request](func() (Request, bool) {
			if i == n {
				return Request{}, false
			}
			i++
			return Request{ID: int64(i), Arrival: time.Duration(i) * time.Millisecond,
				Block: int64(i) * 7919 % (v.Capacity() - 16), Sectors: 16, Write: i%3 == 0}, true
		})
		if err := run(v, src); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunStreamAllocsNothingPerRequest pins the streaming runners'
// admission at zero allocations per request: a run of 2N requests allocates
// exactly what a run of N does, for Volume.RunStream and for a
// RecoverySession with no failed member.
func TestRunStreamAllocsNothingPerRequest(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(v *Volume, src sim.Source[Request]) error
	}{
		{"volume", func(v *Volume, src sim.Source[Request]) error {
			return v.RunStream(sim.NewEngine(), src, sim.Discard[Completion]())
		}},
		{"recovery", func(v *Volume, src sim.Source[Request]) error {
			s, err := NewRecoverySession(v, RecoveryConfig{})
			if err != nil {
				return err
			}
			return s.RunStream(sim.NewEngine(), src, sim.Discard[Completion]())
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n, n2 := streamAllocs(t, 500, c.run), streamAllocs(t, 1000, c.run); n != n2 {
				t.Fatalf("%s RunStream allocates %v for 500 requests and %v for 1000, want equal", c.name, n, n2)
			}
		})
	}
}
