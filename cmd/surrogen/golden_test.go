package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the surrogate goldens from this run")

const (
	goldenModel = "../../testdata/golden/surrogate_model.surm"
	goldenCV    = "../../testdata/golden/surrogate_cv.ndjson"
)

// TestGoldenCV trains the golden grid of testdata/golden/README.md
// sequentially and fanned out over eight workers: the cross-validation
// report on stdout and the artifact on disk must both match the committed
// goldens byte for byte, and -max-cv keeps the training quality gate (the
// worst channel's cross-validated error, 0.18 at the recorded golden).
// Run with -update to rewrite both after a deliberate change.
func TestGoldenCV(t *testing.T) {
	for _, workers := range []string{"1", "8"} {
		model := filepath.Join(t.TempDir(), "model.surm")
		var cv bytes.Buffer
		args := []string{
			"train", "-out", model, "-workers", workers,
			"-years", "2002,2004,2006,2008", "-rpms", "9000,12000,15000,18000,21000",
			"-workloads", "TPC-C,Search-Engine", "-requests", "400", "-folds", "3", "-probes", "4",
			"-max-cv", "0.25",
		}
		if err := run(args, strings.NewReader(""), &cv); err != nil {
			t.Fatalf("workers %s: %v", workers, err)
		}
		art, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(goldenCV, cv.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenModel, art, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		wantCV, err := os.ReadFile(goldenCV)
		if err != nil {
			t.Fatal(err)
		}
		if got := cv.Bytes(); !bytes.Equal(got, wantCV) {
			t.Errorf("workers %s: CV report differs from %s%s\nIf the change is deliberate, rerun with -update.",
				workers, goldenCV, firstDiff(string(got), string(wantCV)))
		}
		wantModel, err := os.ReadFile(goldenModel)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(art, wantModel) {
			t.Errorf("workers %s: artifact differs from %s\nIf the change is deliberate, rerun with -update.",
				workers, goldenModel)
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
