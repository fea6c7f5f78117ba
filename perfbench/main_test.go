package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// result is the JSON object perfbench prints as its last line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runCLI runs perfbench in-process on test-sized inputs and decodes its
// last output line.
func runCLI(t *testing.T, workload, seed, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", seed, "-seconds", "0.5", "-trace", trace,
		"-root", "..", "-work", t.TempDir(), "-tiny"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %s exited %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q is not a result: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// requireMetrics asserts the result holds exactly the declared metrics,
// each with its unit.
func requireMetrics(t *testing.T, res result, want []struct{ name, unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case got.Unit != m.unit:
			t.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []string{"1", "2"} {
				res := runCLI(t, w.name, seed, "0")
				requireMetrics(t, res, endToEnd)
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("seed %s: end-to-end metric %s = %v, want > 0", seed, name, m.Value)
					}
				}
			}
			traced := runCLI(t, w.name, "1", "1")
			requireMetrics(t, traced, perLayer)
			// Both workloads run on sim.Engine and disksim.Disk.
			for _, name := range []string{"sim.engine_ns", "disksim.serve_ns"} {
				if v := traced.Metrics[name].Value; v <= 0 {
					t.Errorf("traced metric %s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// tinyConfig is a direct-call configuration on test-sized inputs.
func tinyConfig(t *testing.T, seed int64) config {
	return config{seed: seed, seconds: 200 * time.Millisecond, root: "..", work: t.TempDir(), tiny: true, log: &bytes.Buffer{}}
}

func TestCorruptedReferenceFailsCheck(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o, err := w.run(tinyConfig(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := o.check(); err != nil {
				t.Fatalf("uncorrupted check failed: %v", err)
			}
			o.ref = strings.Repeat("0", len(o.ref))
			if err := o.check(); err == nil {
				t.Fatal("check passed against a corrupted reference digest")
			}
		})
	}
}

func TestViolationFailsCheck(t *testing.T) {
	o := &outcome{digest: "ab", ref: "ab"}
	o.violate("watermark took no control action")
	if err := o.check(); err == nil || !strings.Contains(err.Error(), "watermark") {
		t.Fatalf("check = %v, want the named violation", err)
	}
}

func TestSeedPlumbing(t *testing.T) {
	digest := func(seed int64) string {
		o, err := runReplay(tinyConfig(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return o.digest
	}
	if a, b := digest(1), digest(1); a != b {
		t.Errorf("seed 1 gave digests %s and %s", a, b)
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}

	if reflect.DeepEqual(replayParams(1, 10), replayParams(2, 10)) {
		t.Error("trace.Params seeds do not depend on the workload seed")
	}
	f1, _ := newDTMFixture(1)
	f2, _ := newDTMFixture(2)
	if f1.seed == f2.seed {
		t.Error("SyntheticSource seed does not depend on the workload seed")
	}
	model, err := loadModel("..")
	if err != nil {
		t.Fatal(err)
	}
	p1, p1again, p2 := mixPool(1, model), mixPool(1, model), mixPool(2, model)
	if !reflect.DeepEqual(p1, p1again) {
		t.Error("simd specs differ for the same seed")
	}
	if reflect.DeepEqual(p1, p2) {
		t.Error("simd specs do not depend on the workload seed")
	}
	if reflect.DeepEqual(mixOrder(1, len(p1), 100), mixOrder(2, len(p1), 100)) {
		t.Error("simd mix order does not depend on the workload seed")
	}
	kinds := map[string]bool{}
	for _, m := range p1 {
		kinds[m.kind] = true
	}
	if len(kinds) != len(jobKinds) {
		t.Errorf("simd pool covers %d job kinds, want %d", len(kinds), len(jobKinds))
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the declared metric and workload
// lists to BENCHMARK.json at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, have)
	}
	same := func(label string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, perfbench reports %d", len(got), label, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], perfbench %s [%s]",
					label, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
