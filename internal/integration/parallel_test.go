// Parallel-vs-sequential equivalence: the sweep engine must reproduce the
// sequential paths bit for bit. Every grid this PR parallelised — the
// Figure 4 workload/RPM fan-out, the roadmap (size, year) grid, the design
// walk's candidate scans, the Monte Carlo batches, and the buffered
// experiment suite — is replayed at worker counts 1 and 4 and compared
// exactly. Run under -race this also exercises the concurrency of the
// shared trace slices and the thermal solve caches.
package integration

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/reliability"
	"repro/internal/scaling"
	"repro/internal/trace"
)

// TestFigure4ParallelMatchesSequential sweeps every seeded workload through
// the batch runner at 1 and 4 workers and requires identical results — the
// same means, the same CDF buckets, the same cache-hit fractions.
func TestFigure4ParallelMatchesSequential(t *testing.T) {
	for _, w := range trace.Workloads {
		w := w.WithRequests(3000)
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := core.RunFigure4Steps(w, core.Figure4Steps(w.BaselineRPM), 1)
			if err != nil {
				t.Fatal(err)
			}
			par, err := core.RunFigure4Steps(w, core.Figure4Steps(w.BaselineRPM), 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallel result differs:\nseq %+v\npar %+v", seq, par)
			}
		})
	}
}

// TestFigure4StreamParallelMatchesSequential pins the same contract on the
// streaming path (own engine and lazy trace per step).
func TestFigure4StreamParallelMatchesSequential(t *testing.T) {
	w := trace.Workloads[0].WithRequests(3000)
	steps := core.Figure4Steps(w.BaselineRPM)
	seq, err := core.RunFigure4StepsStream(w, steps, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.RunFigure4StepsStream(w, steps, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel stream result differs:\nseq %+v\npar %+v", seq, par)
	}
}

// TestRoadmapParallelMatchesSequential compares the full (size, year) grid —
// including the steady solves that go through the thermal cache — across
// worker counts, for the envelope and the VCM-off variants.
func TestRoadmapParallelMatchesSequential(t *testing.T) {
	for _, cfg := range []scaling.Config{
		{},
		{Platters: 2},
		{AmbientDelta: -10, VCMOff: true},
	} {
		seqCfg, parCfg := cfg, cfg
		seqCfg.Workers, parCfg.Workers = 1, 4
		seq, err := scaling.Roadmap(seqCfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := scaling.Roadmap(parCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("config %+v: parallel roadmap differs from sequential", cfg)
		}
	}
}

// TestDesignWalkParallelMatchesSequential: the walk's candidate scans must
// pick the same design at any worker count (ties and "first meeting size"
// resolve in input order).
func TestDesignWalkParallelMatchesSequential(t *testing.T) {
	seq, err := scaling.DesignWalk(scaling.WalkConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := scaling.DesignWalk(scaling.WalkConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel design walk differs:\nseq %+v\npar %+v", seq, par)
	}
}

// TestRunAllParallelMatchesSequential renders the full experiment suite at 1
// and 4 workers and requires the output bytes to match exactly.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite render")
	}
	var seq, par bytes.Buffer
	if err := core.RunAll(&seq, core.Options{Figure4Requests: 2000, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := core.RunAll(&par, core.Options{Figure4Requests: 2000, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("suite output differs between worker counts:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			seq.String(), par.String())
	}
}

// TestMonteCarloParallelMatchesSequential pins the reliability estimator's
// batch decomposition across worker counts and against the analytic form.
func TestMonteCarloParallelMatchesSequential(t *testing.T) {
	m := reliability.Default()
	window := 24 * 365 * time.Hour
	temp := reliability.ReferenceTemp + 10
	seq := m.MonteCarloGroupFailure(temp, 5, window, reliability.MCConfig{Trials: 60_000, Seed: 42, Workers: 1})
	par := m.MonteCarloGroupFailure(temp, 5, window, reliability.MCConfig{Trials: 60_000, Seed: 42, Workers: 4})
	if seq != par {
		t.Errorf("MC estimate differs: workers=1 %+v, workers=4 %+v", seq, par)
	}
}
