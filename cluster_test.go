package pidcan

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pidcan/internal/metrics"
	"pidcan/internal/space"
	"pidcan/internal/vector"
)

func newTestCluster(t *testing.T, n int, seed uint64) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{
		Nodes: n,
		CMax:  vector.Of(10, 10, 10),
		Seed:  seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{Nodes: 1}); err == nil {
		t.Error("1-node cluster accepted")
	}
	if _, err := NewCluster(ClusterConfig{Nodes: 4, CMax: vector.Of(0, 0)}); err == nil {
		t.Error("zero CMax accepted")
	}
	bad := ClusterConfig{Nodes: 4}
	bad.Core.L = -1
	if _, err := NewCluster(bad); err == nil {
		t.Error("invalid core config accepted")
	}
	// Defaults fill in.
	c, err := NewCluster(ClusterConfig{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c.CMax().Dim() != Dims {
		t.Errorf("default CMax dim = %d", c.CMax().Dim())
	}
}

func TestClusterPublishAndQuery(t *testing.T) {
	c := newTestCluster(t, 200, 1)
	nodes := c.Nodes()
	if len(nodes) != 200 {
		t.Fatalf("Nodes = %d", len(nodes))
	}
	// Scatter availabilities; high half qualifies for demand (5,5,5).
	for i, id := range nodes {
		f := 1 + 8*float64(i)/float64(len(nodes))
		if err := c.SetAvailability(id, vector.Of(f, f, f)); err != nil {
			t.Fatal(err)
		}
	}
	// Let two state/diffusion cycles pass.
	c.Step(20 * Minute)
	if c.Now() != 20*Minute {
		t.Errorf("Now = %v", c.Now())
	}

	recs, hops, err := c.Query(nodes[0], vector.Of(5, 5, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("query found nothing")
	}
	if hops == 0 {
		t.Error("query spent no messages")
	}
	for _, r := range recs {
		if !r.Avail.Dominates(vector.Of(5, 5, 5)) {
			t.Errorf("unqualified record %+v", r)
		}
	}
	if c.Metrics().MessageTotal() == 0 {
		t.Error("no messages recorded")
	}
}

func TestClusterAnnounce(t *testing.T) {
	c := newTestCluster(t, 64, 2)
	id := c.Nodes()[5]
	if err := c.SetAvailability(id, vector.Of(9, 9, 9)); err != nil {
		t.Fatal(err)
	}
	if err := c.Announce(id); err != nil {
		t.Fatal(err)
	}
	c.Step(5 * Second) // deliver the pushed record
	recs, _, err := c.Query(c.Nodes()[0], vector.Of(8.5, 8.5, 8.5), 1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.Node == id {
			found = true
		}
	}
	if !found {
		t.Errorf("announced record not discovered: %+v", recs)
	}
}

func TestClusterRangeQueryAll(t *testing.T) {
	c := newTestCluster(t, 128, 3)
	nodes := c.Nodes()
	for i, id := range nodes {
		f := 1 + 8*float64(i)/float64(len(nodes))
		c.SetAvailability(id, vector.Of(f, f, f))
	}
	c.Step(20 * Minute)
	all, floodHops, err := c.RangeQueryAll(nodes[0], vector.Of(5, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	few, fewHops, err := c.Query(nodes[1], vector.Of(5, 5, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < len(few) {
		t.Errorf("INSCAN-RQ found %d < single-message %d", len(all), len(few))
	}
	if len(all) > 0 && floodHops <= fewHops {
		t.Logf("note: flood hops %d vs single %d", floodHops, fewHops)
	}
}

func TestClusterJoinLeave(t *testing.T) {
	c := newTestCluster(t, 32, 4)
	id, err := c.Join()
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 33 {
		t.Errorf("Size = %d", c.Size())
	}
	if err := c.SetAvailability(id, vector.Of(9, 9, 9)); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(id); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 32 {
		t.Errorf("Size after leave = %d", c.Size())
	}
	if err := c.Leave(id); err == nil {
		t.Error("double leave accepted")
	}
	if err := c.SetAvailability(id, vector.Of(1, 1, 1)); err == nil {
		t.Error("SetAvailability on dead node accepted")
	}
	if err := c.Announce(id); err == nil {
		t.Error("Announce on dead node accepted")
	}
	if _, _, err := c.Query(id, vector.Of(1, 1, 1), 1); err == nil {
		t.Error("Query from dead node accepted")
	}
	if _, _, err := c.RangeQueryAll(id, vector.Of(1, 1, 1)); err == nil {
		t.Error("RangeQueryAll from dead node accepted")
	}
}

// TestClusterLeaveForgetsTheNode: a departed node holds nothing for the
// rest of the process but its id's empty slots (TestClusterChurnSoak
// bounds those), and nothing reaches it.
func TestClusterLeaveForgetsTheNode(t *testing.T) {
	c := newTestCluster(t, 50, 5)
	var last NodeID
	for i := 0; i < 2000; i++ {
		id, err := c.Join()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Leave(id); err != nil {
			t.Fatal(err)
		}
		last = id
	}
	live := 0
	for _, a := range c.avail {
		if a != nil {
			live++
		}
	}
	if live != c.Size() || c.Size() != 50 || len(c.Nodes()) != 50 {
		t.Fatalf("%d ids hold an availability, Size %d, Nodes %d: want 50 each", live, c.Size(), len(c.Nodes()))
	}
	if err := c.SetAvailability(last, vector.Of(1, 1, 1)); err == nil {
		t.Error("SetAvailability on a departed node accepted")
	}
	delivered, dropped := false, false
	c.Send(c.Nodes()[0], last, metrics.MsgStateUpdate, 64, func() { delivered = true }, func() { dropped = true })
	c.Step(Minute)
	if delivered || !dropped {
		t.Errorf("Send to a departed node: delivered=%v dropped=%v, want dropped only", delivered, dropped)
	}
	sent := c.Metrics().MessageTotal()
	c.Send(last, c.Nodes()[0], metrics.MsgStateUpdate, 64, func() { delivered = true }, nil)
	if c.Metrics().MessageTotal() != sent {
		t.Error("Send from a departed node went out")
	}
}

// TestClusterRefusedLeaveKeepsTheNode: the overlay refuses to lose its
// last owner, and a refused Leave must leave the node fully in the
// cluster — not listed by Size but forgotten by Nodes and the writes.
func TestClusterRefusedLeaveKeepsTheNode(t *testing.T) {
	c := newTestCluster(t, 2, 3)
	if err := c.Leave(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(1); !errors.Is(err, space.ErrLastOwner) {
		t.Fatalf("leaving the last node: err = %v, want ErrLastOwner", err)
	}
	if c.Size() != 1 || !reflect.DeepEqual(c.Nodes(), []NodeID{1}) {
		t.Fatalf("after a refused leave: Size %d, Nodes %v; want 1, [1]", c.Size(), c.Nodes())
	}
	if err := c.SetAvailability(1, vector.Of(4, 4, 4)); err != nil {
		t.Errorf("SetAvailability after a refused leave: %v", err)
	}
	if err := c.Announce(1); err != nil {
		t.Errorf("Announce after a refused leave: %v", err)
	}
	if got := c.Availability(1); !reflect.DeepEqual(got, vector.Of(4, 4, 4)) {
		t.Errorf("Availability = %v, want (4, 4, 4)", got)
	}
}

// TestEngineRefusedLeaveKeepsTheNode is the same refusal through the
// serving engine: the shard's last node stays listed and writable.
func TestEngineRefusedLeaveKeepsTheNode(t *testing.T) {
	eng, err := NewEngine(EngineConfig{Shards: 1, NodesPerShard: 2, Seed: 3, CMax: vector.Of(8, 8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	nodes := eng.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("Nodes = %v, want 2", nodes)
	}
	if err := eng.Leave(nodes[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Leave(nodes[1]); err == nil {
		t.Fatal("the shard's last node left")
	}
	if got := eng.Nodes(); !reflect.DeepEqual(got, nodes[1:]) {
		t.Fatalf("Nodes after a refused leave = %v, want %v", got, nodes[1:])
	}
	if err := eng.Update(nodes[1], vector.Of(5, 5, 5), true); err != nil {
		t.Fatalf("Update after a refused leave: %v", err)
	}
	resp, err := eng.Query(QueryRequest{Demand: vector.Of(4, 4, 4), K: 1, NoCache: true})
	if err != nil || len(resp.Candidates) != 1 {
		t.Fatalf("query after a refused leave: %+v, %v", resp, err)
	}
}

// heapAfterGC is the live heap: two cycles, so that what the first one
// only queued for release is gone too.
func heapAfterGC() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// clusterFootprint builds an n-node cluster in the benchmark's shape
// (default five-dimension CMax) and returns what it holds live and
// what it allocated on the way, per node.
func clusterFootprint(tb testing.TB, n int) (bytesPerNode, allocsPerNode float64) {
	tb.Helper()
	before := heapAfterGC()
	c, err := NewCluster(ClusterConfig{Nodes: n, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	after := heapAfterGC()
	runtime.KeepAlive(c)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestClusterBytesPerNode is the memory budget of the simulated
// overlay: at 100k nodes it, not the serving tiers, is most of the
// process. 1 216 B per node before periodic timers were one heap entry
// and zones shared bounds, 776 as pointer trees and maps, ≈ 480 as
// arrays (see the space package comment), ≈ 454 once the tree, the
// protocol's node slots and the event queue were reserved at the
// population instead of doubling their way to it, ≈ 459 with the
// host's liveness byte and alive-list entry, ≈ 436 once a periodic
// timer was a 32-B slab slot and a 16-B queue entry instead of a 48-B
// object and a queue pointer, and the availability rows one array.
func TestClusterBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what is allocated")
	}
	got, _ := clusterFootprint(t, 20000)
	t.Logf("%.0f B per node", got)
	if got > 440 {
		t.Errorf("a 20 000-node cluster holds %.0f B per node, budget 440", got)
	}
}

// TestClusterAllocationsPerNode budgets what building a cluster
// allocates per node: nothing. Every per-node structure is an array
// sized at the population — the tree's slots and the bounds of its
// one-pass build, the availability rows, the protocol's node slots,
// the engine's timer slab and queue — so a build makes a few dozen
// objects whatever its size (≈ 56 at 20 000 nodes). It was ≈ 13 per
// node before the overlay was arrays, 5 while every join drew a fresh
// point and the arrays grew by doubling, 4 with a bound object per
// split, an availability vector and two timer objects per node.
func TestClusterAllocationsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what is allocated")
	}
	_, got := clusterFootprint(t, 20000)
	t.Logf("%.4f allocations per node", got)
	if got > 0.01 {
		t.Errorf("building a 20 000-node cluster allocates %.4f objects per node, budget 0.01", got)
	}
}

// TestClusterChurnSoak runs a 20 000-node cluster through ten times its
// population in joins and leaves, then checks the overlay and bounds
// what the churned cluster holds against a fresh one of the same
// size: a departed id costs 69 B for good (4 B of leaf index, 24 of
// availability slot, 32 of protocol slot, 8 of latency model, 1 of
// liveness), and its two stopped periodic timers hold 48 B each (a
// 32-B slab slot, a 16-B queue entry) until their next firing
// releases them, within one cycle — this soak runs at one instant,
// so all of them still do. The initial nodes' availability rows and
// split bounds are one array each, which lives as long as any row or
// zone in it: ≈ 120 B per initial node that no departure gives back.
func TestClusterChurnSoak(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what is allocated")
	}
	const n, rounds, perDeparture = 20000, 10, 200
	fresh, _ := clusterFootprint(t, n)
	before := heapAfterGC()
	c, err := NewCluster(ClusterConfig{Nodes: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	alive := c.Nodes()
	r := rand.New(rand.NewSource(1))
	for i := 0; i < rounds*n; i++ {
		id, err := c.Join()
		if err != nil {
			t.Fatal(err)
		}
		alive = append(alive, id)
		j := r.Intn(len(alive))
		if err := c.Leave(alive[j]); err != nil {
			t.Fatal(err)
		}
		alive[j] = alive[len(alive)-1]
		alive = alive[:len(alive)-1]
	}
	if err := c.Overlay().Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Size() != n || len(c.Nodes()) != n {
		t.Fatalf("Size %d, Nodes %d after churn, want %d", c.Size(), len(c.Nodes()), n)
	}
	after := heapAfterGC()
	runtime.KeepAlive(c)
	got := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.0f B per live node after churn, %.0f fresh", got, fresh)
	if budget := fresh + rounds*perDeparture; got > budget {
		t.Errorf("churned cluster holds %.0f B per live node, budget %.0f (fresh %.0f + %d departures per node × %d B)",
			got, budget, fresh, rounds, perDeparture)
	}
}

// BenchmarkNewCluster25k builds one shard's worth of overlay, the unit
// the serving engine pays per shard, follower and recovered copy.
func BenchmarkNewCluster25k(b *testing.B) {
	var bytes, allocs float64
	for i := 0; i < b.N; i++ {
		bytes, allocs = clusterFootprint(b, 25000)
	}
	b.ReportMetric(bytes, "B/node")
	b.ReportMetric(allocs, "allocs/node")
}

// BenchmarkClusterStep is the cost of an idle cluster's periodic work:
// the protocol's state updates and index diffusion, and the messages
// they send — what a serving shard's idle tick steps and a consistent
// query waits on. No node changes its availability. The cluster is
// stepped one simulated minute to warm up; each iteration then steps
// one more minute, and the cost is reported per simulated second.
func BenchmarkClusterStep(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			c, err := NewCluster(ClusterConfig{Nodes: n, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			c.Step(Minute)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for b.Loop() {
				c.Step(Minute)
			}
			runtime.ReadMemStats(&after)
			simSeconds := float64(b.N) * float64(Minute/Second)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/simSeconds, "ns/sim-s")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/simSeconds, "allocs/sim-s")
		})
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (int, int64) {
		c := newTestCluster(t, 100, 7)
		for i, id := range c.Nodes() {
			f := 1 + 8*float64(i)/100
			c.SetAvailability(id, vector.Of(f, f, f))
		}
		c.Step(30 * Minute)
		recs, _, err := c.Query(c.Nodes()[0], vector.Of(5, 5, 5), 3)
		if err != nil {
			t.Fatal(err)
		}
		return len(recs), c.Metrics().MessageTotal()
	}
	n1, m1 := run()
	n2, m2 := run()
	if n1 != n2 || m1 != m2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", n1, m1, n2, m2)
	}
}

func TestRunFacade(t *testing.T) {
	cfg := DefaultConfig(HIDCAN, 64, 0.25)
	cfg.Duration = 1 * Hour
	cfg.MeanInterarrivalSec = 600
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rec.Generated == 0 {
		t.Error("facade run generated nothing")
	}
	if _, err := Run(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestFacadeConstants(t *testing.T) {
	if CMax().Dim() != Dims || Dims != 5 || WorkDims != 3 {
		t.Error("dimension constants wrong")
	}
	oh := DefaultOverhead()
	if oh.Frac.Dim() != Dims {
		t.Error("overhead dims wrong")
	}
	names := map[Protocol]string{HIDCAN: "HID-CAN", Newscast: "Newscast"}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%v != %s", p, want)
		}
	}
}
