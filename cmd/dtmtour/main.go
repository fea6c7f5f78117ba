// Command dtmtour runs the DTM policy tournament from the command line and
// streams the result as NDJSON: one "cell" line per (policy, workload,
// regime) result in enumeration order, then a single "summary" line — the
// same stream shape the simd tournament job serves over HTTP. Output is
// byte-identical at every -workers value (the tournament determinism
// contract), which is what lets the golden test pin the bracket as an
// artifact.
// With -table, a human-readable scoreboard is printed instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/tournament"
)

func main() {
	var (
		policies  = flag.String("policies", "", "comma-separated entrants (empty = reactive,predictive,slack-ramp)")
		workloads = flag.String("workloads", "", "comma-separated trace workloads (empty = all five)")
		regimes   = flag.String("regimes", "", "comma-separated regimes (empty = clean,fault)")
		requests  = flag.Int("requests", 0, "requests per cell (0 = 4000)")
		seed      = flag.Int64("seed", 0, "request-stream seed (0 = 11)")
		lead      = flag.Duration("lead", 0, "predictive controller lead time (0 = policy default)")
		loadScale = flag.Float64("load-scale", 0, "arrival-rate multiplier (0 = 2)")
		workers   = flag.Int("workers", 0, "parallel cell fan-out (0 = 1)")
		table     = flag.Bool("table", false, "print a human-readable scoreboard instead of NDJSON")
	)
	flag.Parse()

	cfg := tournament.Config{
		Policies:  split(*policies),
		Workloads: split(*workloads),
		Regimes:   split(*regimes),
		Requests:  *requests,
		Seed:      *seed,
		LeadTime:  *lead,
		LoadScale: *loadScale,
		Workers:   *workers,
	}
	if err := run(os.Stdout, cfg, *table); err != nil {
		fmt.Fprintln(os.Stderr, "dtmtour:", err)
		os.Exit(1)
	}
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

type cellLine struct {
	Kind string `json:"kind"`
	tournament.Cell
}

type summaryLine struct {
	Kind string `json:"kind"`
	tournament.Summary
}

// run plays the bracket and writes it to w: NDJSON, or with table the
// scoreboard.
func run(w io.Writer, cfg tournament.Config, table bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	if table {
		return runTable(ctx, w, cfg)
	}
	enc := json.NewEncoder(w)
	sum, err := tournament.Run(ctx, cfg, func(c tournament.Cell) error {
		return enc.Encode(cellLine{Kind: "cell", Cell: c})
	})
	if err != nil {
		return err
	}
	return enc.Encode(summaryLine{Kind: "summary", Summary: sum})
}

func runTable(ctx context.Context, w io.Writer, cfg tournament.Config) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tREGIME\tPOLICY\tMEAN ms\tP95 ms\tMAX °C\tOVER ms\tEVENTS\tFLAPS\tSCORE")
	sum, err := tournament.Run(ctx, cfg, func(c tournament.Cell) error {
		failed := ""
		if c.DiskFailed {
			failed = " †"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.2f\t%.2f\t%.2f\t%.0f\t%d\t%d\t%.2f%s\n",
			c.Workload, c.Regime, c.Policy, c.MeanMS, c.P95MS, c.MaxAirC,
			c.TimeOverMS, c.ThrottleEvents, c.Flaps, c.Score, failed)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "POLICY\tWINS\tMEAN ms\tOVER ms\tEVENTS\tFLAPS\tTOTAL SCORE")
	for _, p := range sum.Policies {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.0f\t%d\t%d\t%.2f\n",
			p.Policy, p.Wins, p.MeanMS, p.TimeOverMS, p.ThrottleEvents, p.Flaps, p.Score)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\noverall: %s († = drive failed)\n", sum.Overall)
	return err
}
