package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/tournament"
)

var update = flag.Bool("update", false, "rewrite the tournament golden from this run")

const goldenPath = "../../testdata/golden/tournament_summary.ndjson"

// TestGoldenBracket regenerates the default bracket sequentially and fanned
// out: both must match the committed golden byte for byte, the tournament
// determinism contract at the artifact level. Run with -update to rewrite
// the golden after a deliberate change.
func TestGoldenBracket(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		if err := run(&buf, tournament.Config{Workers: workers}, false); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
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
			t.Errorf("workers %d: bracket differs from %s%s\nIf the change is deliberate, rerun with -update.",
				workers, goldenPath, firstDiff(string(got), string(want)))
		}
	}
}

// TestTableNamesOverallWinner: the scoreboard ends with the overall winner.
func TestTableNamesOverallWinner(t *testing.T) {
	var buf bytes.Buffer
	cfg := tournament.Config{Workloads: []string{"TPC-C"}, Regimes: []string{"clean"}, Requests: 500}
	if err := run(&buf, cfg, true); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "POLICY") || !strings.Contains(out, "overall: ") {
		t.Errorf("scoreboard incomplete:\n%s", out)
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
