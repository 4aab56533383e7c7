package pidcan

import (
	"runtime"
	"testing"

	"pidcan/internal/metrics"
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

// TestClusterLeaveForgetsTheNode: a departed node costs nothing for the
// rest of the process — Leave used to park it in the live set as false.
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
	if len(c.live) != c.Size() || c.Size() != 50 || len(c.Nodes()) != 50 {
		t.Fatalf("live set holds %d ids, Size %d, Nodes %d: want 50 each", len(c.live), c.Size(), len(c.Nodes()))
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
// and zones shared bounds, 776 after.
func TestClusterBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what is allocated")
	}
	got, _ := clusterFootprint(t, 20000)
	t.Logf("%.0f B per node", got)
	if got > 900 {
		t.Errorf("a 20 000-node cluster holds %.0f B per node, budget 900", got)
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
