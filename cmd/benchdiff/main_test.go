package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gate runs benchdiff at -tolerance tol on one bench line against a
// one-row baseline and reports whether it passed.
func gate(t *testing.T, baseline, line string, tol float64) bool {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, []byte(`{"benchmarks": [`+baseline+`]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	ok, err := run(&out, strings.NewReader(line+"\n"), []string{path}, tol)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + out.String())
	return ok
}

const fleetBase = `{"name": "BenchmarkFleetRun", "ns_per_op": 60000000, "allocs_per_op": 17192}`

// TestAllocGateIgnoresTolerance: allocs/op gates at allocSlack even when
// the ns/op tolerance is CI's 3.0, so fleet's old closure per request
// (+45% allocs/op) fails.
func TestAllocGateIgnoresTolerance(t *testing.T) {
	if gate(t, fleetBase, "BenchmarkFleetRun-2  3  60000000 ns/op  2900000 B/op  24928 allocs/op", 3.0) {
		t.Error("+45% allocs/op passed at -tolerance 3.0")
	}
}

// TestAllocGateAllowsMeasuredSpread: readings inside the spread measured
// over fresh CI runs pass.
func TestAllocGateAllowsMeasuredSpread(t *testing.T) {
	if !gate(t, fleetBase, "BenchmarkFleetRun-2  3  60000000 ns/op  2900000 B/op  17229 allocs/op", 3.0) {
		t.Error("fleet at 17,229 against 17,192 allocs/op failed")
	}
	stream := `{"name": "BenchmarkSimVolumeStream1M", "ns_per_op": 655000000, "allocs_per_op": 65}`
	if !gate(t, stream, "BenchmarkSimVolumeStream1M-2  1  655000000 ns/op  48088 B/op  72 allocs/op", 3.0) {
		t.Error("volume stream at 72 against 65 allocs/op failed")
	}
}

// TestAllocGateExactOnZeroBaseline: one allocation breaks a zero-alloc
// baseline at any tolerance.
func TestAllocGateExactOnZeroBaseline(t *testing.T) {
	serve := `{"name": "BenchmarkDiskServe", "ns_per_op": 160000, "allocs_per_op": 0}`
	if !gate(t, serve, "BenchmarkDiskServe-2  200  160000 ns/op  0 B/op  0 allocs/op", 3.0) {
		t.Error("zero allocs/op against a zero baseline failed")
	}
	if gate(t, serve, "BenchmarkDiskServe-2  200  160000 ns/op  16 B/op  1 allocs/op", 19) {
		t.Error("one alloc/op on a zero baseline passed")
	}
}

// TestNsGateFollowsTolerance: ns/op still gates at -tolerance, and a
// sub-50ns baseline never fails on time.
func TestNsGateFollowsTolerance(t *testing.T) {
	if !gate(t, fleetBase, "BenchmarkFleetRun-2  3  230000000 ns/op  2900000 B/op  17192 allocs/op", 3.0) {
		t.Error("+283% ns/op failed at -tolerance 3.0")
	}
	if gate(t, fleetBase, "BenchmarkFleetRun-2  3  250000000 ns/op  2900000 B/op  17192 allocs/op", 3.0) {
		t.Error("+317% ns/op passed at -tolerance 3.0")
	}
	if gate(t, fleetBase, "BenchmarkFleetRun-2  3  80000000 ns/op  2900000 B/op  17192 allocs/op", 0.25) {
		t.Error("+33% ns/op passed at -tolerance 0.25")
	}
	tiny := `{"name": "BenchmarkDisabledCounter", "ns_per_op": 2, "allocs_per_op": 0}`
	if !gate(t, tiny, "BenchmarkDisabledCounter-2  10000  40 ns/op  0 B/op  0 allocs/op", 3.0) {
		t.Error("a sub-50ns baseline failed on time")
	}
}
