// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload per process, measures it for a fixed wall-clock budget,
// checks the simulated outputs against an independent reference path, and
// prints one JSON result object as the last line of standard output.
//
//	perfbench -workload replay-figure4 -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 a
// separate traced run times every layer from outside (calls into each
// layer's public functions, made from this package) and reports the
// per-layer metrics instead. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// wallLimit bounds one process: whatever happens, it exits within it.
const wallLimit = 170 * time.Second

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median, so one slow repetition does not move it.
const setupReps = 9

// config is what every workload receives.
type config struct {
	seed    int64
	seconds time.Duration
	traced  bool
	root    string // checkout root: testdata/ is read here
	work    string // scratch directory inside the checkout
	tiny    bool   // test-sized inputs
	spans   *tracer
	log     io.Writer
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// outcome is a workload's measurements plus the material for its output
// check: a digest of the measured outputs, the digest the reference path
// produced for the same inputs, and any violated invariants.
type outcome struct {
	attempted, failed int64
	metrics           []metric
	digest, ref       string
	violations        []string
}

func (o *outcome) add(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name, unit, v})
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

// check reports the first failed output check, naming it.
func (o *outcome) check() error {
	if o.digest != o.ref {
		return fmt.Errorf("output digest %s differs from reference digest %s", o.digest, o.ref)
	}
	if len(o.violations) > 0 {
		return fmt.Errorf("invariant violated: %s", strings.Join(o.violations, "; "))
	}
	return nil
}

// workload is one named benchmark input.
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"replay-figure4", runReplay},
	{"dtm-policies", runDTMPolicies},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	watchdog := time.AfterFunc(wallLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: wall-time limit %v exceeded\n", wallLimit)
		os.Exit(3)
	})
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	watchdog.Stop()
	os.Exit(code)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: replay-figure4 or dtm-policies")
	seed := fs.Int64("seed", 1, "workload seed; every generated input derives from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced per-layer breakdown")
	root := fs.String("root", ".", "checkout root; testdata/ is read there")
	work := fs.String("work", "", "scratch directory (default <root>/.bench_build/perfbench)")
	tiny := fs.Bool("tiny", false, "test-sized inputs, for the smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(stderr, "perfbench: %s: need -seconds > 0 and -trace 0 or 1\n", w.name)
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		root:    *root,
		work:    *work,
		tiny:    *tiny,
		log:     stderr,
	}
	if cfg.work == "" {
		cfg.work = filepath.Join(*root, ".bench_build", "perfbench")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: scratch directory: %v\n", w.name, err)
		return 1
	}
	if cfg.traced {
		cfg.spans = newTracer(spanLimit)
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.traced {
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.ndjson", w.name, cfg.seed))
		if err := cfg.spans.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: writing spans: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d kept, %d sampled out, written to %s\n",
			len(cfg.spans.spans), cfg.spans.dropped, path)
	}
	checkErr := res.check()
	fmt.Fprintf(stdout, "workload %s seed %d: digest %s reference %s\n", w.name, cfg.seed, res.digest, res.ref)
	if err := printResult(stdout, res, checkErr == nil); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", w.name, checkErr)
		return 1
	}
	return 0
}

// printResult writes the human-readable metric lines and then the JSON
// result object as the final line.
func printResult(w io.Writer, o *outcome, correct bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.metrics))
	for _, m := range o.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not a finite number", m.name)
		}
		if _, dup := ms[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		ms[m.name] = value{m.value, m.unit}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if o.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, o.attempted, o.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// timeSetup runs set-up reps times and returns the median duration, scaled
// to the reference host speed. What the last repetition builds is kept for
// the timed phase.
func timeSetup(reps int, once func() error) (time.Duration, error) {
	cal := newCalibration()
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		_, d, err := cal.time(once)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// median returns the middle value (mean of the middle two for even n).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
