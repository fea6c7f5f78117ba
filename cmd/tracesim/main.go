// Command tracesim reproduces the paper's Figure 4: the five server
// workloads replayed against their disk arrays at the baseline spindle speed
// and three +5,000 RPM increments, reporting response-time CDFs over the
// paper's buckets and the mean response times.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/profiling"
	"repro/internal/raid"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		workload   = flag.String("workload", "", "run only this workload (default: all five)")
		requests   = flag.Int("requests", 300000, "requests per workload (0 = the paper's full counts)")
		save       = flag.String("save", "", "write the generated trace to this file instead of simulating")
		analyze    = flag.Bool("analyze", false, "print trace profiles (arm movement, seek distances) instead of simulating")
		config     = flag.String("config", "", "load workload definitions from this JSON file instead of the built-ins")
		dumpConfig = flag.String("dumpconfig", "", "write the built-in workload definitions to this JSON file and exit")
		failDisk   = flag.Int("faildisk", -1, "fail this member disk mid-run and report degraded-mode service (-1 = off)")
		failAt     = flag.Duration("failat", 5*time.Second, "when the injected member failure strikes")
		rebuildMB  = flag.Float64("rebuildmb", raid.DefaultRebuildMBPerSec, "rebuild rate onto the spare, MB/s")
		noSpare    = flag.Bool("nospare", false, "run the failure without a hot spare (no rebuild)")
		exact      = flag.Bool("exact", false, "collect whole traces for exact percentiles (O(trace) memory) instead of streaming")
		workers    = flag.Int("workers", 0, "RPM-sweep worker count (0 = all cores, 1 = sequential)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	var oc obs.CLI
	oc.RegisterFlags(flag.CommandLine)
	flag.Parse()
	oc.Enable()
	// An interrupted run still flushes -metrics-out/-trace-out before
	// exiting with the conventional 128+signal status.
	stopFlush := oc.FlushOnInterrupt()
	if oc.Registry != nil {
		parallel.SetMetrics(parallel.NewMetrics(oc.Registry))
	}
	if *dumpConfig != "" {
		if err := dumpBuiltins(*dumpConfig); err != nil {
			fmt.Fprintln(os.Stderr, "tracesim:", err)
			os.Exit(1)
		}
		return
	}
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}
	fi := faultInjection{disk: *failDisk, at: *failAt, rebuildMB: *rebuildMB, spare: !*noSpare}
	err = run(os.Stdout, *workload, *requests, *save, *analyze, *config, *exact, *workers, fi,
		core.Observe{Registry: oc.Registry, Tracer: oc.Tracer})
	stopFlush() // uninstall before the normal flush so the writers cannot race
	if err == nil {
		err = oc.Flush()
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesim:", err)
		os.Exit(1)
	}
}

// faultInjection configures the -faildisk degraded-mode run.
type faultInjection struct {
	disk      int
	at        time.Duration
	rebuildMB float64
	spare     bool
}

// dumpBuiltins writes the five paper workloads as an editable JSON config.
func dumpBuiltins(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteConfig(f, trace.Workloads); err != nil {
		return err
	}
	fmt.Printf("wrote %d workload definitions to %s\n", len(trace.Workloads), path)
	return f.Close()
}

func run(out io.Writer, name string, requests int, save string, analyze bool, config string, exact bool, workers int, fi faultInjection, ob core.Observe) error {
	workloads := trace.Workloads
	if config != "" {
		f, err := os.Open(config)
		if err != nil {
			return err
		}
		defer f.Close()
		workloads, err = trace.ReadConfig(f)
		if err != nil {
			return err
		}
	}
	if name != "" {
		found := false
		for _, w := range workloads {
			if w.Name == name {
				workloads = []trace.Params{w}
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("workload %q not in the loaded set", name)
		}
	}
	for _, w := range workloads {
		if requests > 0 {
			w = w.WithRequests(requests)
		}
		if save != "" {
			return saveTrace(out, w, save)
		}
		if analyze {
			if err := analyzeTrace(out, w); err != nil {
				return err
			}
			continue
		}
		if fi.disk >= 0 {
			if err := runDegraded(out, w, fi); err != nil {
				return err
			}
			continue
		}
		// The streaming path replays each speed straight from the seeded
		// generator in O(1) memory (P² 95th percentile); -exact collects
		// the trace for exact order statistics. -metrics-out/-trace-out
		// ride the streaming path, where the per-step hooks are live.
		var res core.WorkloadResult
		var err error
		steps := core.Figure4Steps(w.BaselineRPM)
		if exact {
			res, err = core.RunFigure4Steps(w, steps, workers)
		} else {
			res, err = core.RunFigure4StepsStreamCtx(context.Background(), w, steps, workers, ob, nil)
		}
		if err != nil {
			return err
		}
		fmt.Fprint(out, core.FormatResult(res))
		imp := res.Improvements()
		fmt.Fprintf(out, "  mean response improvement vs baseline: +%.1f%% +%.1f%% +%.1f%%\n\n",
			imp[0]*100, imp[1]*100, imp[2]*100)
	}
	return nil
}

// runDegraded replays the workload at its baseline speed with one member
// disk failed mid-run, servicing through the recovery engine: mirror reads
// fail over, RAID-5 reads reconstruct from the survivors, and (with a
// spare) the rebuild replays onto it while foreground service continues.
func runDegraded(out io.Writer, w trace.Params, fi faultInjection) error {
	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		return err
	}
	if fi.disk >= len(vol.Disks()) {
		return fmt.Errorf("workload %s has %d disks, cannot fail disk %d",
			w.Name, len(vol.Disks()), fi.disk)
	}
	vol.Disks()[fi.disk].SetFaults(disksim.FailAfter{T: fi.at})
	src, err := w.Stream(vol.Capacity())
	if err != nil {
		return err
	}
	total := src.Remaining()
	var spares []*disksim.Disk
	if fi.spare {
		layout, err := w.MemberDiskLayout()
		if err != nil {
			return err
		}
		sp, err := disksim.New(disksim.Config{Layout: layout, RPM: w.BaselineRPM})
		if err != nil {
			return err
		}
		spares = append(spares, sp)
	}
	s, err := raid.NewRecoverySession(vol, raid.RecoveryConfig{
		Reliability:     reliability.Default(),
		RebuildMBPerSec: fi.rebuildMB,
	}, spares...)
	if err != nil {
		return err
	}
	// Stream the replay: the healthy/degraded split is accumulated per
	// completion, so nothing is retained.
	var healthy, degraded stats.Running
	err = s.RunStream(sim.NewEngine(), src,
		sim.SinkFunc[raid.Completion](func(c raid.Completion) {
			if c.Degraded {
				degraded.Add(c.Response())
			} else {
				healthy.Add(c.Response())
			}
		}))
	if err != nil {
		return err
	}
	rep := s.Report()

	fmt.Fprintf(out, "%s (%v, %d disks): disk %d fails at %v\n",
		w.Name, vol.Level(), len(vol.Disks()), fi.disk, fi.at)
	fmt.Fprintf(out, "  served %d/%d requests: %d degraded (mean %.2f ms) vs %d healthy (mean %.2f ms)\n",
		healthy.N()+degraded.N(), total, degraded.N(), degraded.Mean(),
		healthy.N(), healthy.Mean())
	if rep.LostRequests > 0 {
		fmt.Fprintf(out, "  %d requests LOST (no redundancy on %v)\n", rep.LostRequests, vol.Level())
	}
	fmt.Fprintf(out, "  %d on-the-fly reconstructions, %d redundancy-exposed writes\n",
		rep.Reconstructions, rep.ExposedWrites)
	if rep.RebuildWindow > 0 {
		fmt.Fprintf(out, "  rebuild window %v at %.0f MB/s: double-failure risk %.2e, MTTDL %.0f h\n",
			rep.RebuildWindow.Round(time.Second), fi.rebuildMB, rep.RebuildRisk, rep.MTTDL.Hours())
	}
	for _, e := range rep.Events {
		fmt.Fprintf(out, "  %12v  %v disk %d\n", e.Time.Round(time.Millisecond), e.Kind, e.Disk)
	}
	fmt.Fprintln(out)
	return nil
}

// analyzeTrace prints the workload's section 5.1-style profile (the paper
// quotes Openmail at 86% arm movement, 1,952 mean seek cylinders).
func analyzeTrace(out io.Writer, w trace.Params) error {
	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		return err
	}
	reqs, err := w.Generate(vol.Capacity())
	if err != nil {
		return err
	}
	prof, err := w.Analyze(reqs)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-17s %8d reqs  %5.1f%% reads  mean %5.1f sectors  %6.0f req/s\n",
		w.Name, prof.Requests, prof.ReadFraction*100, prof.MeanSectors, prof.Rate)
	fmt.Fprintf(out, "%-17s %8d disk I/Os: %4.1f%% move the arm, mean seek %.0f cylinders\n\n",
		"", prof.DiskRequests, prof.ArmMoveFraction*100, prof.MeanSeekCylinders)
	return nil
}

func saveTrace(out io.Writer, w trace.Params, path string) error {
	vol, err := w.BuildVolume(w.BaselineRPM)
	if err != nil {
		return err
	}
	reqs, err := w.Generate(vol.Capacity())
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, reqs); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d requests of %s to %s\n", len(reqs), w.Name, path)
	return f.Close()
}
