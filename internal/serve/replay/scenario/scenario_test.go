package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pidcan/internal/serve/capture"
)

// TestCorpusReplays runs every scenario of the corpus end to end:
// compile at a fixed seed, replay against a fresh engine with a
// cache-off reference attached and the referee checking every
// snapshot-path answer, cached ones included, assert the invariant set
// holds.
func TestCorpusReplays(t *testing.T) {
	hits := 0
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := Build(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			if len(sc.Events) < 100 {
				t.Fatalf("scenario %s compiled to only %d events", name, len(sc.Events))
			}
			res, viol, err := Run(sc, t.TempDir(), t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range viol {
				t.Errorf("invariant violated: %s", v)
			}
			if res.Queries == 0 || res.Mutations == 0 {
				t.Fatalf("degenerate scenario: %+v", res)
			}
			cached := 0
			for i := range sc.Events {
				if sc.Events[i].Cached {
					cached++
				}
			}
			hits += cached
			t.Logf("%s: %d events (%d queries, %d cache hits when recorded, %d mutations, %d faults), p99 %s, imbalance %.2f",
				name, res.Events, res.Queries, cached, res.Mutations, res.Faults, res.P99, res.Imbalance)
		})
	}
	if hits == 0 {
		t.Fatal("no scenario query was a cache hit: the corpus never replays the cached path")
	}
}

// TestCorpusDeterministic compiles every scenario twice at the same
// seed and requires bit-identical traces — the property replay's
// digest assertions stand on.
func TestCorpusDeterministic(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			a := compileBytes(t, name, 7)
			b := compileBytes(t, name, 7)
			if !bytes.Equal(a, b) {
				t.Fatalf("scenario %s is not deterministic: traces differ (%d vs %d bytes)", name, len(a), len(b))
			}
			c := compileBytes(t, name, 8)
			if bytes.Equal(a, c) {
				t.Fatalf("scenario %s ignores its seed", name)
			}
		})
	}
}

// TestTraceFileRoundTrip writes a compiled scenario through the real
// trace encoder and reads it back whole.
func TestTraceFileRoundTrip(t *testing.T) {
	sc, err := Build("flash-crowd", 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := WriteTraceFile(path, sc); err != nil {
		t.Fatal(err)
	}
	hdr, events, torn, err := capture.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("%d torn bytes in a cleanly written trace", torn)
	}
	if hdr.Shards != sc.Header.Shards || hdr.Seed != sc.Header.Seed ||
		len(hdr.CMax) != len(sc.Header.CMax) || len(events) != len(sc.Events) {
		t.Fatalf("round trip mismatch: %d events in, %d out", len(sc.Events), len(events))
	}
	for i := range events {
		if events[i].Kind != sc.Events[i].Kind || events[i].Digest != sc.Events[i].Digest {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, events[i], sc.Events[i])
		}
	}
	// A truncated copy must decode as a torn tail, not an error.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, shortEvents, torn2, err := capture.DecodeTrace(data[:len(data)-5])
	if err != nil {
		t.Fatal(err)
	}
	if torn2 == 0 || len(shortEvents) != len(events)-1 {
		t.Fatalf("torn tail not tolerated: %d events, %d torn", len(shortEvents), torn2)
	}
}

func compileBytes(t *testing.T, name string, seed uint64) []byte {
	t.Helper()
	sc, err := Build(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := capture.NewWriter(&buf, sc.Header)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sc.Events {
		ev := sc.Events[i]
		ev.At = 0 // normalize: only the logical stream must match
		if err := w.WriteEvent(&ev); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
