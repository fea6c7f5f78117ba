package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the roadmap golden from this run")

const goldenPath = "../../testdata/golden/roadmap.txt"

// TestGoldenRoadmap regenerates the default report (Table 3 and Figures 2
// and 3) sequentially and fanned out over eight workers: both must match
// the committed golden byte for byte. Run with -update to rewrite the
// golden after a deliberate change.
func TestGoldenRoadmap(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		var buf bytes.Buffer
		if err := run(&buf, []string{"-workers", workers}); err != nil {
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
