package serve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"pidcan/internal/memtest"
	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

// TestSnapshotRecordsIsADerivedView pins what Engine.Snapshot hands
// out now that a shard stores no record array: Records is ascending by
// node with the published availability, never expiring, it is
// materialised once per index version — a second call, and a call
// after an idle-tick republication that changed nothing, return the
// same backing array — and a write publishes a version that is
// materialised afresh.
func TestSnapshotRecordsIsADerivedView(t *testing.T) {
	cfg := testConfig(1)
	cfg.NodesPerShard = 300 // three blocks
	e, clk := newClockedEngine(t, cfg)
	rng := rand.New(rand.NewSource(1))
	want := map[GlobalID]vector.Vec{}
	for _, id := range e.Nodes() {
		want[id] = vector.Of(0, 0)
		if rng.Intn(3) == 0 {
			continue // never written: zero availability
		}
		a := vector.Of(10*rng.Float64(), 10*rng.Float64())
		if err := e.Update(id, a, false); err != nil {
			t.Fatal(err)
		}
		want[id] = a
		if rng.Intn(10) == 0 {
			clk.advance(time.Second)
		}
	}
	if s := e.shards[0].snapshot(); s.Records != nil || s.flat == nil {
		t.Fatalf("published snapshot stores %d records (index %v); want the index alone", len(s.Records), s.flat != nil)
	}

	first, _ := e.Snapshot(0)
	if len(first.Records) != cfg.NodesPerShard || first.Len() != cfg.NodesPerShard {
		t.Fatalf("%d records, Len %d, want %d", len(first.Records), first.Len(), cfg.NodesPerShard)
	}
	for i, r := range first.Records {
		id := Global(0, r.Node)
		if i > 0 && r.Node <= first.Records[i-1].Node {
			t.Fatalf("records %d and %d out of node order", i-1, i)
		}
		if a := want[id]; !r.Avail.Equal(a) || r.Expires != math.MaxInt64 {
			t.Fatalf("record %+v, want avail %v, never expiring", r, a)
		}
	}

	again, _ := e.Snapshot(0)
	if &again.Records[0] != &first.Records[0] {
		t.Fatal("second Snapshot call of the same version materialised the records again")
	}
	clk.advance(100 * time.Millisecond) // idle tick: republished, nothing dirty
	idle, _ := e.Snapshot(0)
	if idle.Version == first.Version || idle.Taken == first.Taken {
		t.Fatalf("idle tick did not republish (version %d, taken %v)", idle.Version, idle.Taken)
	}
	if &idle.Records[0] != &first.Records[0] {
		t.Fatal("idle-tick republication with nothing dirty materialised the records again")
	}

	node := Global(0, first.Records[7].Node)
	if err := e.Update(node, vector.Of(1, 2), false); err != nil {
		t.Fatal(err)
	}
	after, _ := e.Snapshot(0)
	if &after.Records[0] == &first.Records[0] {
		t.Fatal("a write was published over the old materialised records")
	}
	if !after.Records[7].Avail.Equal(vector.Of(1, 2)) || !first.Records[7].Avail.Equal(want[node]) {
		t.Fatalf("after the write: new view holds %v, the old one %v (was %v)", after.Records[7].Avail, first.Records[7].Avail, want[node])
	}
}

// TestPublicationAllocationIsNotPerRecord: one Engine.Update — ack
// path and publication — must allocate about the same whatever the
// shard's population: ten times the nodes, at most twice the bytes;
// and at either size no more than the publication's budget, which
// holds when most touched blocks take the patch path (the running
// engine's counters say they do). The budgets are what an uncontended
// Update takes when its writer serves it under the combiner lock, with
// no reply channel: 2 553 B in 13.56 allocations at 2 500 nodes,
// 5 095 B in 13.80 at 25 000.
func TestPublicationAllocationIsNotPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const smallCap, largeCap, allocsCap = 2656, 5216, 14
	perUpdate := func(n int) (bytes, allocs float64) {
		cfg := testConfig(1)
		cfg.NodesPerShard = n
		cfg.CMax = vector.Of(25.6, 80, 10, 240, 4096)
		e, _ := newClockedEngine(t, cfg)
		rng := rand.New(rand.NewSource(3))
		nodes := e.Nodes()
		update := func() {
			a := vector.New(cfg.CMax.Dim())
			for d := range a {
				a[d] = cfg.CMax[d] * rng.Float64()
			}
			if err := e.Update(nodes[rng.Intn(n)], a, false); err != nil {
				t.Fatal(err)
			}
		}
		for range 2000 { // spread the all-zero start-up scores, split the full blocks
			update()
		}
		bytes, allocs = memtest.PerCall(1, 300, update)
		st := e.Stats()
		t.Logf("%d nodes: %d blocks patched, %d rewritten", n, st.IndexPatchedBlocks, st.IndexRewrittenBlocks)
		if st.IndexPatchedBlocks < 4*st.IndexRewrittenBlocks {
			t.Fatalf("%d nodes: %d blocks patched, %d rewritten: the patch path is not the common one", n, st.IndexPatchedBlocks, st.IndexRewrittenBlocks)
		}
		return bytes, allocs
	}
	small, smallN := perUpdate(2500)
	large, largeN := perUpdate(25000)
	t.Logf("one Engine.Update allocates %.0f B in %.2f allocations at 2500 nodes, %.0f B in %.2f at 25000", small, smallN, large, largeN)
	if large > 2*small {
		t.Fatalf("one Engine.Update allocates %.0f B at 25000 nodes, more than twice the %.0f B at 2500", large, small)
	}
	if small > smallCap || large > largeCap {
		t.Fatalf("one Engine.Update allocates %.0f B at 2500 nodes (budget %d B), %.0f B at 25000 (budget %d B)", small, smallCap, large, largeCap)
	}
	if smallN > allocsCap || largeN > allocsCap {
		t.Fatalf("one Engine.Update makes %.2f allocations at 2500 nodes, %.2f at 25000; budget %d", smallN, largeN, allocsCap)
	}
}

// TestFollowerApplyAllocation: a follower's apply of one replicated
// update at 2 500 nodes — the op replayed under the combiner lock, the
// mirror log append and the publication — allocates no more than the
// 2 634 B in 13.4 allocations measured for it.
func TestFollowerApplyAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bytesCap, allocsCap = 2664, 14
	cfg := testConfig(1)
	cfg.NodesPerShard = 2500
	cfg.CMax = vector.Of(25.6, 80, 10, 240, 4096)
	cfg.DataDir = t.TempDir()
	cfg.Follower = true
	e, _ := newClockedEngine(t, cfg)
	rng := rand.New(rand.NewSource(3))
	rec := []wal.Record{{Kind: wal.KindUpdate, Avail: make([]float64, cfg.CMax.Dim())}}
	apply := func() {
		rec[0].Node = uint32(rng.Intn(cfg.NodesPerShard))
		for d := range rec[0].Avail {
			rec[0].Avail[d] = cfg.CMax[d] * rng.Float64()
		}
		if err := e.ReplApply(0, e.Epoch(), rec); err != nil {
			t.Fatal(err)
		}
	}
	for range 2000 { // spread the all-zero start-up scores, split the full blocks
		apply()
	}
	bytes, allocs := memtest.PerCall(1, 300, apply)
	t.Logf("a follower's apply of one update allocates %.0f B in %.2f allocations", bytes, allocs)
	if bytes > bytesCap || allocs > allocsCap {
		t.Fatalf("a follower's apply of one update allocates %.0f B in %.2f allocations; budget %d B, %d allocations", bytes, allocs, bytesCap, allocsCap)
	}
}
