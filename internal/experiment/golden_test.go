package experiment

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pidcan/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current code")

// Golden-figure shape: the smallest scale and duration at which every
// figure runs its whole matrix (overlay joins and leaves, index
// diffusion, queries, churn, checkpoints) in a few seconds.
const (
	goldenScale    = 0.02
	goldenDuration = 1 * sim.Hour
)

var goldenSeeds = []uint64{1, 2}

const goldenFile = "testdata/figures.golden"

// renderDigests runs every figure of IDs() for every golden seed and
// returns one line per (figure, seed): the SHA-256 of its rendered
// table.
func renderDigests(t *testing.T) []string {
	var lines []string
	for _, seed := range goldenSeeds {
		for _, id := range IDs() {
			f, err := Get(id, seed, goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			fr, err := Execute(f.ShortenFor(goldenDuration), 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", id, seed, err)
			}
			var b strings.Builder
			fr.Render(&b)
			lines = append(lines, fmt.Sprintf("%s seed=%d %x", id, seed, sha256.Sum256([]byte(b.String()))))
		}
	}
	return lines
}

// TestFiguresGolden holds every rendered figure table, for two seeds,
// to the digests recorded in testdata/figures.golden: a change to the
// simulation, the overlay, the protocols or the metrics that moves a
// single printed figure fails here. Regenerate the file only for a
// change meant to move figures, with
//
//	go test ./internal/experiment -run TestFiguresGolden -update
func TestFiguresGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes the figure matrix too slow")
	}
	got := renderDigests(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d figure digests, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("figure moved:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
