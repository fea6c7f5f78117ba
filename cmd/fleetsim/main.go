// Command fleetsim runs one fleet-scale thermal simulation from the command
// line and streams the result as NDJSON: one "rack" line per rack as its
// chassis shards complete, then a single "summary" line — the same stream
// shape the simd fleet job serves over HTTP. Output is byte-identical at
// every -workers value (the fleet determinism contract), which is what lets
// a cooling-failure run be pinned as a golden artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/units"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

type rackLine struct {
	Kind string `json:"kind"`
	fleet.RackSummary
}

type summaryLine struct {
	Kind string `json:"kind"`
	fleet.Summary
}

// run parses the command-line flags in args and writes the run's NDJSON
// stream to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fleetsim", flag.ContinueOnError)
	var (
		racks    = fs.Int("racks", 4, "racks in the room")
		chassis  = fs.Int("chassis", 4, "chassis per rack")
		slots    = fs.Int("slots", 8, "drive slots per chassis")
		requests = fs.Int("requests", 40, "requests per drive stream")
		seed     = fs.Int64("seed", 1, "fleet workload seed")
		airflow  = fs.Float64("airflow", 30, "per-chassis airflow in CFM")
		recirc   = fs.Float64("recirc", 0, "rack exhaust recirculation fraction [0,1)")
		place    = fs.String("placement", "static", "stream placement: static or coolest")
		migrate  = fs.Float64("migrate-at", 0, "migration threshold in C (0 = off)")
		hyst     = fs.Float64("hysteresis", 0, "migration hysteresis in C (0 = 2)")
		workers  = fs.Int("workers", 0, "chassis-shard fan-out (0 = all cores)")

		failRack  = fs.Int("fail-rack", 0, "cooling-failure rack (-1 = room-wide)")
		failAt    = fs.Duration("fail-at", 0, "cooling-failure onset on the sim clock")
		failFor   = fs.Duration("fail-for", 0, "cooling-failure duration (0 = no failure)")
		failDelta = fs.Float64("fail-delta", 0, "cooling-failure inlet rise in C")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := fleet.Config{
		Topology:  fleet.Topology{Racks: *racks, ChassisPerRack: *chassis, SlotsPerChassis: *slots},
		Scenario:  fleet.Scenario{AirflowCFM: *airflow, Recirculation: *recirc},
		Workload:  fleet.Workload{RequestsPerDrive: *requests, Seed: *seed},
		Placement: fleet.Placement(*place),
		Migration: fleet.Migration{
			ThresholdC:  units.Celsius(*migrate),
			HysteresisC: units.Celsius(*hyst),
		},
		Workers: *workers,
	}
	if *failFor > 0 {
		cfg.Scenario.CoolingFailure = &fleet.CoolingFailure{
			Rack:     *failRack,
			At:       *failAt,
			Duration: *failFor,
			DeltaC:   units.Celsius(*failDelta),
		}
	}

	enc := json.NewEncoder(w)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	sum, err := fleet.Run(ctx, cfg, func(rs fleet.RackSummary) error {
		return enc.Encode(rackLine{Kind: "rack", RackSummary: rs})
	})
	if err != nil {
		return err
	}
	return enc.Encode(summaryLine{Kind: "summary", Summary: sum})
}
