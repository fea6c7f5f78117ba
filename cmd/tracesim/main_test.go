package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite the Figure 4 goldens from this run")

const (
	goldenPanel   = "../../testdata/golden/figure4_tpcc.txt"
	goldenMetrics = "../../testdata/golden/metrics_tpcc.ndjson"
)

// TestGoldenFigure4 regenerates the TPC-C Figure 4 panel and its metrics
// snapshot (`-workload TPC-C -requests 2000 -metrics-out`) sequentially and
// fanned out over four workers: both must match the committed goldens byte
// for byte. Run with -update to rewrite them after a deliberate change.
func TestGoldenFigure4(t *testing.T) {
	for _, workers := range []int{1, 4} {
		panel, metrics := figure4TPCC(t, workers)
		if *update {
			writeGolden(t, goldenPanel, panel)
			writeGolden(t, goldenMetrics, metrics)
			continue
		}
		checkGolden(t, workers, goldenPanel, panel)
		checkGolden(t, workers, goldenMetrics, metrics)
	}
}

// figure4TPCC runs what the CLI runs for the golden command and returns its
// stdout and its -metrics-out snapshot (stable series only, as written
// without -metrics-volatile).
func figure4TPCC(t *testing.T, workers int) (panel, metrics []byte) {
	t.Helper()
	reg := obs.NewRegistry()
	parallel.SetMetrics(parallel.NewMetrics(reg))
	defer parallel.SetMetrics(nil)
	var out bytes.Buffer
	if err := run(&out, "TPC-C", 2000, "", false, "", false, workers,
		faultInjection{disk: -1}, core.Observe{Registry: reg}); err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	var snap bytes.Buffer
	if err := obs.WriteNDJSON(&snap, obs.Stable(reg.Snapshot())); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), snap.Bytes()
}

func writeGolden(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, workers int, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("workers %d: output differs from %s%s\nIf the change is deliberate, rerun with -update.",
			workers, path, firstDiff(string(got), string(want)))
	}
}

// firstDiff names the first line where got and want disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("\nfirst difference at line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return ""
}
