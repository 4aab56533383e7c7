package serve

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/vector"
)

func shardPopulations(t *testing.T, e *Engine) []int {
	t.Helper()
	st := e.Stats()
	pops := make([]int, len(st.Shards))
	for _, sh := range st.Shards {
		pops[sh.Shard] = sh.Nodes
	}
	return pops
}

// TestMigrateValidation covers what only a shard can refuse; the
// placement-level outcomes (unknown placements, the no-op, roll-back)
// are rows of fed.TestPlacementContract.
func TestMigrateValidation(t *testing.T) {
	e := newTestEngine(t, testConfig(2))
	if err := e.Migrate(Global(0, 99), 1); err == nil {
		t.Fatal("migrating a nonexistent node succeeded")
	}
	// A shard never drains below one node: the CAN overlay cannot
	// lose its last owner.
	for _, id := range []GlobalID{Global(0, 0), Global(0, 1), Global(0, 2)} {
		if err := e.Migrate(id, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Migrate(Global(0, 3), 1); !errors.Is(err, ErrLastNode) {
		t.Fatalf("migrating the last node: got %v, want ErrLastNode", err)
	}
	if pops := shardPopulations(t, e); pops[0] != 1 || pops[1] != 7 {
		t.Fatalf("populations = %v, want [1 7]", pops)
	}
}

// TestRebalanceManualPasses pins the pass mechanics without timers:
// skewed joins, then manual Rebalance calls must converge the
// populations under the threshold and cap moves per pass.
func TestRebalanceManualPasses(t *testing.T) {
	e := newTestEngine(t, testConfig(4))
	for i := 0; i < 24; i++ {
		if _, err := e.JoinOn(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	// 28/4/4/4. First pass must report the imbalance and respect the
	// move cap.
	res, err := e.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if res.From != 0 || res.Imbalance != 7 {
		t.Fatalf("first pass: %+v, want From=0 Imbalance=7", res)
	}
	if res.Moved != rebalanceMaxMoves {
		t.Fatalf("first pass moved %d, want the cap %d", res.Moved, rebalanceMaxMoves)
	}
	for i := 0; i < 32; i++ {
		res, err = e.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		if res.Moved == 0 {
			break
		}
	}
	pops := shardPopulations(t, e)
	min, max := pops[0], pops[0]
	for _, p := range pops {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if ratio := float64(max) / float64(min); ratio > rebalanceThreshold {
		t.Fatalf("populations %v (ratio %.2f) did not converge under %.2f",
			pops, ratio, rebalanceThreshold)
	}
	total := 0
	for _, p := range pops {
		total += p
	}
	if total != 4*4+24 {
		t.Fatalf("rebalancing changed the population: %v", pops)
	}
}

// TestRebalanceConvergesUnderZipfSkew is the acceptance case: with
// the background rebalancer on and joins zipf-concentrated onto low
// shards, the max/min shard-population ratio must fall to <= 1.25
// within two rebalance intervals of the last join. The 24 joins skew
// the populations to 18/10/7/5, which takes 7 moves to even out: one
// pass at the move cap.
func TestRebalanceConvergesUnderZipfSkew(t *testing.T) {
	cfg := testConfig(4)
	cfg.RebalanceInterval = 20 * time.Millisecond
	e := newTestEngine(t, cfg)

	rng := rand.New(rand.NewPCG(7, 0x51e))
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(e.shards)-1))
	for i := 0; i < 24; i++ {
		if _, err := e.JoinOn(int(zipf.Uint64()), nil); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(2 * cfg.RebalanceInterval)
	var pops []int
	for {
		pops = shardPopulations(t, e)
		min, max := pops[0], pops[0]
		for _, p := range pops {
			if p < min {
				min = p
			}
			if p > max {
				max = p
			}
		}
		if min > 0 && float64(max)/float64(min) <= 1.25 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("populations %v still skewed two intervals after the last join (stats %+v)",
				pops, e.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := e.Stats()
	if st.Migrations == 0 || st.Rebalances == 0 {
		t.Fatalf("converged without the rebalancer? %+v", st)
	}
	if st.LastImbalance == 0 {
		t.Fatalf("LastImbalance never sampled: %+v", st)
	}
}

// TestRebalanceNoPingPongOnOneNodeGap pins the convergence guard:
// small populations can hold a ratio above the threshold with only a
// one-node gap, where any move merely swaps which shard is largest.
// The pass must stop instead of burning its move cap shuttling one
// node back and forth forever.
func TestRebalanceNoPingPongOnOneNodeGap(t *testing.T) {
	cfg := testConfig(2)
	cfg.NodesPerShard = 2
	e := newTestEngine(t, cfg) // 2 + 2 nodes
	if _, err := e.JoinOn(0, nil); err != nil {
		t.Fatal(err)
	}
	// Populations {3, 2}: ratio 1.5 > threshold 1.25, gap 1.
	for pass := 0; pass < 3; pass++ {
		res, err := e.Rebalance()
		if err != nil {
			t.Fatal(err)
		}
		if res.Moved != 0 {
			t.Fatalf("pass %d moved %d node(s) across a one-node gap: %+v", pass, res.Moved, res)
		}
		if res.Imbalance != 1.5 {
			t.Fatalf("pass %d reported imbalance %v, want 1.5", pass, res.Imbalance)
		}
	}
	if st := e.Stats(); st.Migrations != 0 || st.ForwardedIDs != 0 {
		t.Fatalf("ping-pong migrations happened: %+v", st)
	}
}

// TestRebalanceNoMovesWhenBalanced pins the do-no-harm property: a
// level engine must never migrate.
func TestRebalanceNoMovesWhenBalanced(t *testing.T) {
	e := newTestEngine(t, testConfig(3))
	res, err := e.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 0 || res.Imbalance != 1 {
		t.Fatalf("balanced engine rebalanced: %+v", res)
	}
	if st := e.Stats(); st.Migrations != 0 || st.Rebalances != 1 {
		t.Fatalf("stats after no-op pass: %+v", st)
	}
}

func TestJoinOnValidation(t *testing.T) {
	e := newTestEngine(t, testConfig(2))
	if _, err := e.JoinOn(2, nil); !errors.Is(err, ErrNoShard) {
		t.Fatalf("JoinOn(2) on a 2-shard engine: got %v, want ErrNoShard", err)
	}
	id, err := e.JoinOn(1, vector.Of(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if id.Shard() != 1 {
		t.Fatalf("JoinOn(1) placed the node on shard %d", id.Shard())
	}
}

// TestTakeChecksLivenessWithoutListingNodes: the migration take asks
// Backend.Alive — on a real cluster Backend.Nodes() allocates and sorts
// the whole shard population, per migrated node, under the shard's
// combiner lock. Results are what the listing scan produced: a resident node leaves carrying its availability, a
// non-resident one is refused by name.
func TestTakeChecksLivenessWithoutListingNodes(t *testing.T) {
	e, clk := newClockedEngine(t, testConfig(1))
	f, s := clk.fakes[0], e.shards[0]
	if err := e.Update(Global(0, 2), vector.Of(7, 3), false); err != nil {
		t.Fatal(err)
	}
	gone, err := e.Join(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(gone); err != nil {
		t.Fatal(err)
	}
	clk.settle(0)
	f.nodesCalls = 0
	take := func(node overlay.NodeID) opResult {
		t.Helper()
		res, err := s.submit(op{kind: opTake, node: node})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := take(2); res.err != nil || !res.avail.Equal(vector.Of(7, 3)) {
		t.Fatalf("take of resident node 2: avail %v, err %v; want (7, 3)", res.avail, res.err)
	}
	for _, node := range []overlay.NodeID{2, gone.Local(), 99} { // just taken, left, never joined
		res := take(node)
		if want := fmt.Sprintf("serve: node %d not on shard 0", node); res.err == nil || res.err.Error() != want {
			t.Fatalf("take of non-resident node %d: err %v, want %q", node, res.err, want)
		}
		if res.avail != nil {
			t.Fatalf("failed take of node %d handed back availability %v", node, res.avail)
		}
	}
	clk.settle(0)
	if f.nodesCalls != 0 {
		t.Fatalf("4 takes listed the shard population %d times, want 0", f.nodesCalls)
	}
	if snap, _ := e.Snapshot(0); len(snap.Records) != 3 {
		t.Fatalf("%d records after taking 1 of 4 nodes, want 3", len(snap.Records))
	}
}
