// Hot-path byte-identity cross-check: the zero-alloc streaming path (the
// reused-closure admission, slice-backed event heap, scratch sub-request
// buffer and per-disk timing tables) must reproduce the reference
// implementation bit for bit. Volume.SimulateBatch is that reference — an
// independent disk-by-disk join kept precisely so the optimized engine has
// something to be checked against — and the whole comparison is fanned out
// over the parallel pool at 1 and 8 workers (and run under -race in CI) to
// pin that the digest of every workload/fault-regime combination is
// identical at any worker count and equal to its recorded constant.
package integration

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/dtm"
	"repro/internal/parallel"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/trace"
)

// hotPathJob is one (workload, fault regime) cell of the cross-check grid.
type hotPathJob struct {
	workload trace.Params
	regime   string // "clean" or "thermal"
}

// armFaults wires identically-seeded thermal fault injectors to every
// member, per-disk seeds keyed by member index so both volumes of a
// comparison draw the same hazard sequence.
func armFaults(vol *raid.Volume) {
	for i, d := range vol.Disks() {
		inj := dtm.NewThermalFaults(dtm.OffTrackModel{}, reliability.Default(),
			dtm.BindSteady(52), int64(100+i))
		d.SetFaults(inj)
	}
}

// runHotPathJob replays the job's workload through the optimized streaming
// path and the reference batch path, requires identical completions, and
// returns an FNV-1a digest of the streamed output for cross-worker-count
// comparison.
func runHotPathJob(j hotPathJob) (uint64, error) {
	streamVol, err := j.workload.BuildVolume(j.workload.BaselineRPM)
	if err != nil {
		return 0, err
	}
	refVol, err := j.workload.BuildVolume(j.workload.BaselineRPM)
	if err != nil {
		return 0, err
	}
	if j.regime == "thermal" {
		armFaults(streamVol)
		armFaults(refVol)
	}
	reqs, err := j.workload.Generate(streamVol.Capacity())
	if err != nil {
		return 0, err
	}

	// Optimized path: the streaming engine directly (what Simulate, the
	// benchmarks and the service layer all run).
	var got []raid.Completion
	err = streamVol.RunStream(sim.NewEngine(), sim.FromSlice(reqs),
		sim.SinkFunc[raid.Completion](func(c raid.Completion) { got = append(got, c) }))
	if err != nil {
		return 0, err
	}
	// Reference path: the independent whole-trace implementation.
	want, err := refVol.SimulateBatch(reqs)
	if err != nil {
		return 0, err
	}
	if len(got) != len(want) {
		return 0, fmt.Errorf("%s/%s: stream served %d completions, reference %d",
			j.workload.Name, j.regime, len(got), len(want))
	}
	// The reference sorts by (arrival, ID); the stream serves in admission
	// order, which for these FCFS traces is the same order.
	for i := range got {
		if got[i] != want[i] {
			return 0, fmt.Errorf("%s/%s: completion %d differs:\nstream    %+v\nreference %+v",
				j.workload.Name, j.regime, i, got[i], want[i])
		}
	}
	h := fnv.New64a()
	for i := range got {
		fmt.Fprintf(h, "%+v\n", got[i])
	}
	return h.Sum64(), nil
}

// TestHotPathMatchesReferenceAcrossWorkers runs the full grid — all five
// workloads under both fault regimes — through the optimized and reference
// paths at 1 and 8 pool workers, and requires the per-cell digests to be
// identical between worker counts and equal to hotPathDigests.
func TestHotPathMatchesReferenceAcrossWorkers(t *testing.T) {
	var jobs []hotPathJob
	for _, w := range trace.Workloads {
		w := w.WithRequests(2500)
		jobs = append(jobs, hotPathJob{workload: w, regime: "clean"})
		jobs = append(jobs, hotPathJob{workload: w, regime: "thermal"})
	}

	digestsAt := func(workers int) []uint64 {
		t.Helper()
		out, err := parallel.Map(workers, jobs, func(_ int, j hotPathJob) (uint64, error) {
			return runHotPathJob(j)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	one := digestsAt(1)
	eight := digestsAt(8)
	for i := range jobs {
		if one[i] != eight[i] {
			t.Errorf("%s/%s: digest %016x at workers=1, %016x at workers=8",
				jobs[i].workload.Name, jobs[i].regime, one[i], eight[i])
		}
		key := jobs[i].workload.Name + "/" + jobs[i].regime
		if want := hotPathDigests[key]; one[i] != want {
			t.Errorf("%s: digest %016x, pinned %016x", key, one[i], want)
		}
	}
}

// hotPathDigests pins every cell's digest. The reference path runs the same
// Disk.Serve as the streaming path, so agreement between the two (and
// between worker counts) cannot catch a disksim change that moves every
// byte; these constants do.
var hotPathDigests = map[string]uint64{
	"HPL Openmail/clean":       0x6a3e3cb0ad8995cf,
	"HPL Openmail/thermal":     0xb6a50a8f64d972cd,
	"OLTP Application/clean":   0x6cf128c35ee68d40,
	"OLTP Application/thermal": 0xd48487f9e97ee674,
	"Search-Engine/clean":      0xa671130d95f3f369,
	"Search-Engine/thermal":    0xb726a98ab80a43c1,
	"TPC-C/clean":              0x74e060f6df66357d,
	"TPC-C/thermal":            0xfd794852436960ad,
	"TPC-H/clean":              0xccb2f3ae08dd6bfd,
	"TPC-H/thermal":            0x6ae757cd75baf1d6,
}
