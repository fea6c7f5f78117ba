package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fleet golden from this run")

const goldenPath = "../../testdata/golden/fleet_coolfail.ndjson"

// goldenArgs is the cooling-failure scenario testdata/golden/README.md
// documents for fleet_coolfail.ndjson.
var goldenArgs = []string{
	"-racks", "4", "-chassis", "3", "-slots", "6", "-requests", "25",
	"-seed", "11", "-recirc", "0.2", "-placement", "coolest", "-migrate-at", "30", "-hysteresis", "0.5",
	"-fail-rack", "1", "-fail-at", "200ms", "-fail-for", "3s", "-fail-delta", "12",
}

// TestGoldenFleet regenerates the cooling-failure scenario sequentially and
// fanned out over eight chassis shards: both must match the committed
// golden byte for byte, the shard-merge determinism contract at the
// artifact level. Run with -update to rewrite the golden after a deliberate
// change.
func TestGoldenFleet(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		var buf bytes.Buffer
		if err := run(&buf, append(goldenArgs, "-workers", workers)); err != nil {
			t.Fatalf("workers %s: %v", workers, err)
		}
		if *update {
			if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("workers %s: output differs from %s%s\nIf the change is deliberate, rerun with -update.",
				workers, goldenPath, firstDiff(string(got), string(want)))
		}
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
