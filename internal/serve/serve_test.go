package serve

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// fakeBackend is a minimal deterministic Backend for engine tests:
// a flat map of availabilities with a trivial scan query.
type fakeBackend struct {
	now   sim.Time
	next  overlay.NodeID
	live  map[overlay.NodeID]bool
	avail map[overlay.NodeID]vector.Vec
	dims  int

	// gate, when non-nil, blocks Query until the channel closes —
	// the hook tests use to stall a shard's combiner.
	gate chan struct{}

	announced int
	queries   int

	// Clock-contract instrumentation: steps logs every Step's d (the
	// Warmup step included), onStep runs inside each Step under the
	// shard's combiner lock, queryRuns is how far a Query runs the
	// clock ahead (as Cluster.Query does while it drives the
	// protocol), and nodesCalls counts Nodes() listings (the fake's own
	// Query lists too; Size does not).
	steps      []sim.Time
	onStep     func()
	queryRuns  sim.Time
	nodesCalls int
}

func newFake(nodes, dims int) *fakeBackend {
	f := &fakeBackend{
		live:  map[overlay.NodeID]bool{},
		avail: map[overlay.NodeID]vector.Vec{},
		dims:  dims,
	}
	for i := 0; i < nodes; i++ {
		f.live[overlay.NodeID(i)] = true
		f.avail[overlay.NodeID(i)] = vector.New(dims)
	}
	f.next = overlay.NodeID(nodes)
	return f
}

func (f *fakeBackend) Nodes() []overlay.NodeID {
	f.nodesCalls++
	var out []overlay.NodeID
	for id := overlay.NodeID(0); id < f.next; id++ {
		if f.live[id] {
			out = append(out, id)
		}
	}
	return out
}

func (f *fakeBackend) Alive(id overlay.NodeID) bool { return f.live[id] }

func (f *fakeBackend) Availability(id overlay.NodeID) vector.Vec { return f.avail[id].Clone() }

func (f *fakeBackend) SetAvailability(id overlay.NodeID, v vector.Vec) error {
	if !f.live[id] {
		return fmt.Errorf("fake: node %d not live", id)
	}
	f.avail[id] = v.Clone()
	return nil
}

func (f *fakeBackend) Announce(id overlay.NodeID) error {
	if !f.live[id] {
		return fmt.Errorf("fake: node %d not live", id)
	}
	f.announced++
	return nil
}

func (f *fakeBackend) Join() (overlay.NodeID, error) {
	id := f.next
	f.next++
	f.live[id] = true
	f.avail[id] = vector.New(f.dims)
	return id, nil
}

func (f *fakeBackend) Leave(id overlay.NodeID) error {
	if !f.live[id] {
		return fmt.Errorf("fake: node %d not live", id)
	}
	delete(f.live, id)
	delete(f.avail, id)
	return nil
}

func (f *fakeBackend) Query(from overlay.NodeID, demand vector.Vec, k int) ([]proto.Record, int, error) {
	if f.gate != nil {
		<-f.gate
	}
	f.queries++
	f.now += f.queryRuns
	var recs []proto.Record
	for _, id := range f.Nodes() {
		if f.avail[id].Dominates(demand) {
			recs = append(recs, proto.Record{Node: id, Avail: f.avail[id].Clone(), Expires: f.now + sim.Minute})
			if len(recs) >= k {
				break
			}
		}
	}
	return recs, len(recs), nil
}

func (f *fakeBackend) Step(d sim.Time) {
	f.steps = append(f.steps, d)
	f.now += d
	if f.onStep != nil {
		f.onStep()
	}
}
func (f *fakeBackend) Now() sim.Time { return f.now }
func (f *fakeBackend) Size() int     { return len(f.live) }

// SeedNextID advances the id sequence (checkpoint restore in O(alive)).
func (f *fakeBackend) SeedNextID(next overlay.NodeID) error {
	if next < f.next {
		return fmt.Errorf("fake: seed id %d below next %d", next, f.next)
	}
	f.next = next
	return nil
}

// testConfig returns a fast small config over a 2-dim unit cmax.
func testConfig(shards int) Config {
	return Config{
		Shards:        shards,
		NodesPerShard: 4,
		CMax:          vector.Of(10, 10),
		FlushInterval: 5 * time.Millisecond,
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg, func(i int, rc Config) (Backend, error) {
		return newFake(rc.NodesPerShard, rc.CMax.Dim()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// newCacheTestEngine is newTestEngine with a query cache of the given
// grid, size and adapt window (newQueryCache) in place of the engine's
// own, installed before any goroutine starts.
func newCacheTestEngine(t *testing.T, cfg Config, quantum, quantumMax float64, size, adaptEvery int) *Engine {
	t.Helper()
	e, err := build(cfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	e.cache = newQueryCache(e.cfg.CMax, quantum, quantumMax, size, adaptEvery)
	e.start()
	t.Cleanup(func() { e.Close() })
	return e
}

// handClock is the test side of the shards' clock seam: wall time, as
// the shards see it, is whatever the test has advanced it to, and an
// idle tick happens exactly when the test runs one.
type handClock struct {
	e       *Engine
	fakes   []*fakeBackend
	elapsed time.Duration
}

// newClockedEngine builds an engine of fake backends whose shards tick
// only by hand: its own idle tick comes once an hour.
func newClockedEngine(t *testing.T, cfg Config) (*Engine, *handClock) {
	t.Helper()
	c := &handClock{}
	cfg.FlushInterval = time.Hour
	e, err := build(cfg, func(i int, rc Config) (Backend, error) {
		f := newFake(rc.NodesPerShard, rc.CMax.Dim())
		c.fakes = append(c.fakes, f)
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c.e = e
	e.start()
	t.Cleanup(func() { e.Close() })
	return e, c
}

// advance moves wall time forward by d and runs one tick on every
// shard, under its combiner lock as the engine's idle tick would.
func (c *handClock) advance(d time.Duration) {
	c.elapsed += d
	for _, s := range c.e.shards {
		now := s.started.Add(c.elapsed)
		s.locked(func() error { s.tick(now); return nil })
	}
}

// settle returns once whoever held shard i's combiner lock when settle
// was called has let it go: everything written under the lock before
// is visible to the caller.
func (c *handClock) settle(i int) {
	s := c.e.shards[i]
	s.mu.Lock()
	s.mu.Unlock()
}

func TestGlobalIDRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		shard int
		local overlay.NodeID
	}{{0, 0}, {3, 17}, {255, 1 << 30}} {
		g := Global(tc.shard, tc.local)
		if g.Shard() != tc.shard || g.Local() != tc.local {
			t.Fatalf("Global(%d,%d) round-tripped to (%d,%d)",
				tc.shard, tc.local, g.Shard(), g.Local())
		}
	}
}

func TestQueryBestFitOrdering(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	// Three nodes qualify with different surpluses; best fit first.
	nodes := e.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes, want 4", len(nodes))
	}
	for i, a := range []vector.Vec{
		vector.Of(9, 9), // big surplus
		vector.Of(5, 5), // closest fit
		vector.Of(7, 6),
		vector.Of(1, 1), // does not qualify
	} {
		if err := e.Update(nodes[i], a, false); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(4, 4), K: 10, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 3 {
		t.Fatalf("got %d candidates, want 3: %+v", len(resp.Candidates), resp.Candidates)
	}
	want := []GlobalID{nodes[1], nodes[2], nodes[0]}
	for i, c := range resp.Candidates {
		if c.Node != want[i] {
			t.Fatalf("candidate %d = %v, want %v (resp %+v)", i, c.Node, want[i], resp)
		}
	}
	if resp.Candidates[0].Surplus >= resp.Candidates[1].Surplus {
		t.Fatalf("surpluses not ascending: %+v", resp.Candidates)
	}
}

func TestQueryKTruncation(t *testing.T) {
	e := newTestEngine(t, testConfig(2))
	for _, id := range e.Nodes() {
		if err := e.Update(id, vector.Of(8, 8), false); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), K: 3, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 3 {
		t.Fatalf("got %d candidates, want 3", len(resp.Candidates))
	}
	// K defaults to 1.
	resp, err = e.Query(QueryRequest{Demand: vector.Of(1, 1), NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 {
		t.Fatalf("default K: got %d candidates, want 1", len(resp.Candidates))
	}
}

func TestQueryMergesAcrossShards(t *testing.T) {
	e := newTestEngine(t, testConfig(3))
	nodes := e.Nodes()
	if len(nodes) != 12 {
		t.Fatalf("got %d nodes, want 12", len(nodes))
	}
	// One qualifying node per shard.
	seen := map[int]bool{}
	for _, id := range nodes {
		if !seen[id.Shard()] {
			seen[id.Shard()] = true
			if err := e.Update(id, vector.Of(6, 6), false); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(2, 2), K: 10, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	shards := map[int]bool{}
	for _, c := range resp.Candidates {
		shards[c.Node.Shard()] = true
	}
	if len(shards) != 3 {
		t.Fatalf("candidates span %d shards, want 3: %+v", len(shards), resp.Candidates)
	}
}

func TestQueryCacheHitAndExpiry(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	if err := e.Update(e.Nodes()[0], vector.Of(5, 5), false); err != nil {
		t.Fatal(err)
	}
	demand := vector.Of(1.8, 1.8)
	first, err := e.Query(QueryRequest{Demand: demand, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query reported cached")
	}
	second, err := e.Query(QueryRequest{Demand: demand, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second query not served from cache")
	}
	// Nearby demand in the same quantization cell (cell size is
	// cacheQuantum·cmax = 0.5 here) also hits.
	near := vector.Of(1.9, 1.9)
	third, err := e.Query(QueryRequest{Demand: near, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Fatal("quantization-equivalent demand missed the cache")
	}
	if st := e.Stats(); st.CacheHits < 2 {
		t.Fatalf("stats report %d cache hits, want >= 2", st.CacheHits)
	}
}

// TestCachedResponsesNeverViolateDominance: demands sharing a cache
// cell get each its own answer from the cell's entry. A node inside the
// (1.5, 2.0] cell (1.85 < 1.9) is never handed to the 1.9 query, and is
// handed to the 1.8 query on the hit of the entry the 1.9 query filled,
// like the node above the cell.
func TestCachedResponsesNeverViolateDominance(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	nodes := e.Nodes()
	if err := e.Update(nodes[0], vector.Of(1.85, 1.85), false); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(nodes[1], vector.Of(3, 3), false); err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		demand vector.Vec
		want   []GlobalID
	}{
		{vector.Of(1.9, 1.9), []GlobalID{nodes[1]}},
		{vector.Of(1.8, 1.8), []GlobalID{nodes[0], nodes[1]}},
		{vector.Of(1.9, 1.9), []GlobalID{nodes[1]}},
	} {
		resp := mustQuery(t, e, QueryRequest{Demand: tc.demand, K: 5})
		if resp.Cached != (i > 0) {
			t.Fatalf("query %d (%v): cached=%v, want %v", i, tc.demand, resp.Cached, i > 0)
		}
		got := make([]GlobalID, len(resp.Candidates))
		for j, c := range resp.Candidates {
			if got[j] = c.Node; !c.Avail.Dominates(tc.demand) {
				t.Fatalf("candidate %v (avail %v) does not dominate demand %v", c.Node, c.Avail, tc.demand)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("query %d (%v) answered %v, want %v", i, tc.demand, got, tc.want)
		}
	}
}

// TestCachedSurplusUsesTrueDemand pins the cache-path scoring fix:
// whether a response is computed fresh or served from the cache, the
// surpluses it carries are for the demand the caller actually sent,
// not the quantization cell's upper bound the candidate set was
// evaluated against.
func TestCachedSurplusUsesTrueDemand(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	avail := vector.Of(5, 5)
	if err := e.Update(e.Nodes()[0], avail, false); err != nil {
		t.Fatal(err)
	}
	cmax := e.Config().CMax
	// (1.8, 1.8) and (1.9, 1.9) share the (1.5, 2.0] cell; the cell
	// upper bound (2, 2) would yield surplus 0.60 for both.
	for i, demand := range []vector.Vec{vector.Of(1.8, 1.8), vector.Of(1.9, 1.9), vector.Of(1.8, 1.8)} {
		resp, err := e.Query(QueryRequest{Demand: demand, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && !resp.Cached {
			t.Fatalf("query %d not served from cache", i)
		}
		if len(resp.Candidates) != 1 {
			t.Fatalf("query %d: %+v", i, resp.Candidates)
		}
		want := avail.Surplus(demand, cmax)
		if got := resp.Candidates[0].Surplus; got != want {
			t.Fatalf("query %d (cached=%v): surplus %v, want %v (true demand %v)",
				i, resp.Cached, got, want, demand)
		}
	}
}

// TestCacheEntryNotAliased pins the aliasing fix: a caller mutating
// its response must not corrupt the cached entry behind it.
func TestCacheEntryNotAliased(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	if err := e.Update(e.Nodes()[0], vector.Of(5, 5), false); err != nil {
		t.Fatal(err)
	}
	demand := vector.Of(1.8, 1.8)
	first, err := e.Query(QueryRequest{Demand: demand, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Candidates) != 1 {
		t.Fatalf("first response: %+v", first.Candidates)
	}
	want := first.Candidates[0].Node
	first.Candidates[0] = Candidate{Node: Global(7, 7), Surplus: -1}
	second, err := e.Query(QueryRequest{Demand: demand, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second query not served from cache")
	}
	if len(second.Candidates) != 1 || second.Candidates[0].Node != want {
		t.Fatalf("cache corrupted by caller mutation: %+v", second.Candidates)
	}
	// And the same for mutations of a cache-hit response.
	second.Candidates[0] = Candidate{Node: Global(8, 8)}
	third, err := e.Query(QueryRequest{Demand: demand, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Candidates) != 1 || third.Candidates[0].Node != want {
		t.Fatalf("cache corrupted by hit-path mutation: %+v", third.Candidates)
	}
}

func TestUpdateVisibleInSnapshot(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	id := e.Nodes()[2]
	if err := e.Update(id, vector.Of(7, 3), false); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(6, 2), K: 5, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Node != id {
		t.Fatalf("update not visible: %+v", resp.Candidates)
	}
}

func TestJoinLeaveLifecycle(t *testing.T) {
	e := newTestEngine(t, testConfig(2))
	before := len(e.Nodes())
	id, err := e.Join(vector.Of(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(8.5, 8.5), K: 5, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Node != id {
		t.Fatalf("joined node not serving: %+v", resp.Candidates)
	}
	if got := len(e.Nodes()); got != before+1 {
		t.Fatalf("population %d after join, want %d", got, before+1)
	}
	if err := e.Leave(id); err != nil {
		t.Fatal(err)
	}
	resp, err = e.Query(QueryRequest{Demand: vector.Of(8.5, 8.5), K: 5, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 0 {
		t.Fatalf("departed node still serving: %+v", resp.Candidates)
	}
	if err := e.Leave(id); err == nil {
		t.Fatal("double leave succeeded")
	}
}

// TestConsistentScopeOneSingleShard pins the paper-faithful shape of
// every consistent query: one shard's index, one leg.
func TestConsistentScopeOneSingleShard(t *testing.T) {
	e := newTestEngine(t, testConfig(4))
	for _, id := range e.Nodes() {
		if err := e.Update(id, vector.Of(6, 6), false); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), K: 16, Consistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsQueried != 1 {
		t.Fatalf("ShardsQueried = %d, want 1", resp.ShardsQueried)
	}
	shards := map[int]bool{}
	for _, c := range resp.Candidates {
		shards[c.Node.Shard()] = true
	}
	if len(shards) != 1 {
		t.Fatalf("consistent candidates span %d shards: %+v", len(shards), resp.Candidates)
	}
}

// TestConsistentScatterToleratesHaltedShard pins the shutdown
// semantics of the round-robin: a consistent query whose turn falls on
// a halted shard fails with ErrClosed, and the next query, whose turn
// falls on a live shard, is answered there.
func TestConsistentScatterToleratesHaltedShard(t *testing.T) {
	e := newTestEngine(t, testConfig(4))
	for _, id := range e.Nodes() {
		if err := e.Update(id, vector.Of(6, 6), false); err != nil {
			t.Fatal(err)
		}
	}
	e.shards[0].halt() // the first query's turn
	if _, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), K: 16, Consistent: true}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query on the halted shard: got %v, want ErrClosed", err)
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), K: 16, Consistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsQueried != 1 || len(resp.Candidates) == 0 {
		t.Fatalf("next query: %+v, want an answer from one live shard", resp)
	}
	for _, c := range resp.Candidates {
		if c.Node.Shard() != 1 {
			t.Fatalf("next query answered from shard %d, want shard 1: %+v", c.Node.Shard(), resp.Candidates)
		}
	}
}

// TestJoinDistributionEvenUnderMixedTraffic pins the routing-counter
// split: interleaved consistent queries must not skew the join
// round-robin, so shard populations stay level.
func TestJoinDistributionEvenUnderMixedTraffic(t *testing.T) {
	const shards, joins = 4, 16
	e := newTestEngine(t, testConfig(shards))
	for i := 0; i < joins; i++ {
		if _, err := e.Join(nil); err != nil {
			t.Fatal(err)
		}
		// Consistent queries advance their own counter, never the
		// join one — an uneven number per join stresses exactly that.
		for j := 0; j <= i%3; j++ {
			if _, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), Consistent: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := e.Stats()
	for _, ss := range st.Shards {
		want := testConfig(shards).NodesPerShard + joins/shards
		if ss.Nodes != want {
			t.Fatalf("shard %d holds %d nodes, want %d (join round-robin skewed): %+v",
				ss.Shard, ss.Nodes, want, st.Shards)
		}
	}
}

func TestConsistentQueryRoutesThroughShard(t *testing.T) {
	e := newTestEngine(t, testConfig(2))
	for _, id := range e.Nodes() {
		if err := e.Update(id, vector.Of(6, 6), false); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), K: 2, Consistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) == 0 {
		t.Fatalf("consistent query found nothing: %+v", resp)
	}
	if st := e.Stats(); st.Consistent != 1 {
		t.Fatalf("stats report %d consistent queries, want 1", st.Consistent)
	}
}

func TestBadInputs(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	if _, err := e.Query(QueryRequest{Demand: vector.Of(1)}); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("wrong-dim demand: got %v", err)
	}
	if _, err := e.Query(QueryRequest{Demand: vector.Of(-1, 0)}); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("negative demand: got %v", err)
	}
	if err := e.Update(Global(9, 0), vector.Of(1, 1), false); !errors.Is(err, ErrNoShard) {
		t.Fatalf("update on unknown shard: got %v, want ErrNoShard", err)
	}
	if err := e.Leave(Global(9, 0)); !errors.Is(err, ErrNoShard) {
		t.Fatalf("leave on unknown shard: got %v, want ErrNoShard", err)
	}
	if err := e.Update(e.Nodes()[0], vector.Of(1, 2, 3), false); !errors.Is(err, ErrBadDemand) {
		t.Fatalf("wrong-dim avail: got %v", err)
	}
}

func TestCloseRejectsOps(t *testing.T) {
	cfg := testConfig(2)
	e, err := New(cfg, func(i int, rc Config) (Backend, error) {
		return newFake(rc.NodesPerShard, rc.CMax.Dim()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	id := e.Nodes()[0]
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: got %v", err)
	}
	if _, err := e.Query(QueryRequest{Demand: vector.Of(1, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: got %v", err)
	}
	if err := e.Update(id, vector.Of(1, 1), false); !errors.Is(err, ErrClosed) {
		t.Fatalf("update after close: got %v", err)
	}
	if _, err := e.Join(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("join after close: got %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	e := newTestEngine(t, testConfig(2))
	nodes := e.Nodes()
	for i := 0; i < 3; i++ {
		if err := e.Update(nodes[i], vector.Of(5, 5), true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Join(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Updates != 3 || st.Joins != 1 || st.Queries != 4 {
		t.Fatalf("counters: %+v", st)
	}
	if st.TotalNodes != 9 {
		t.Fatalf("total nodes %d, want 9", st.TotalNodes)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shard stats: %+v", st.Shards)
	}
	if st.Shards[0].SnapshotVersion == 0 {
		t.Fatalf("snapshot never published: %+v", st.Shards[0])
	}
}

// TestSnapshotSearchHandBuiltMatchesPublished pins Snapshot.Search to
// the referee: a hand-built answer (proto.BestFit over the published
// snapshot's own records) must rank the same candidates, bit for bit,
// as the published snapshot's index search, for bounded k, a score
// tie, and k = 0 (every match) — with the best fit written a minute of
// simulated time before the snapshot, which both must still rank.
func TestSnapshotSearchHandBuiltMatchesPublished(t *testing.T) {
	cfg := testConfig(1)
	cfg.NodesPerShard = 6
	e, clk := newClockedEngine(t, cfg) // only advance below moves the clock
	nodes := e.Nodes()
	// One write per node, 10s apart: the clock ends at 60s, and the
	// oldest record is the best fit.
	for i, a := range []vector.Vec{
		vector.Of(5, 5), // the best fit, written first
		vector.Of(9, 9),
		vector.Of(6, 7), // ties with the next on surplus
		vector.Of(7, 6),
		vector.Of(3, 9), // does not dominate
		vector.Of(8, 8),
	} {
		if err := e.Update(nodes[i], a, false); err != nil {
			t.Fatal(err)
		}
		clk.advance(10 * time.Second)
	}
	pub, err := e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	demand := vector.Of(4, 4)
	for _, tc := range []struct{ k, want int }{{1, 1}, {3, 3}, {0, 5}} {
		cands, _ := pub.Search(nil, demand, cfg.CMax, tc.k)
		got := RankCandidates(cands, tc.k)
		var want []Candidate
		for _, f := range proto.BestFit(nil, pub.Records, pub.Taken, uint64(Global(pub.Shard, 0)), demand, cfg.CMax, tc.k) {
			want = append(want, Candidate{Node: GlobalID(f.ID), Avail: f.Avail, Surplus: f.Surplus})
		}
		if len(got) != tc.want || len(want) != tc.want {
			t.Fatalf("k=%d: published ranked %d, hand-built %d, want %d\n%+v\n%+v",
				tc.k, len(got), len(want), tc.want, got, want)
		}
		for i := range got {
			a, b := got[i], want[i]
			if a.Node != b.Node || math.Float64bits(a.Surplus) != math.Float64bits(b.Surplus) || !a.Avail.Equal(b.Avail) {
				t.Fatalf("k=%d cand %d: published %+v != hand-built %+v", tc.k, i, a, b)
			}
		}
		if got[0].Node != nodes[0] {
			t.Fatalf("k=%d: best fit %v, want the oldest record's node %v", tc.k, got[0].Node, nodes[0])
		}
		if len(got) > 2 && got[1].Node != nodes[2] {
			t.Fatalf("k=%d: second fit %v, want %v (the lower id of the surplus tie)", tc.k, got[1].Node, nodes[2])
		}
	}
}

// TestSnapshotRecordsNeverExpire: a snapshot reads every alive node's
// availability from its backend, so the records Snapshot.Records
// materialises for the referee never expire, whatever the clock: a
// record written a simulated day before the snapshot is expired at no
// time a snapshot can be taken, and it still answers a query.
func TestSnapshotRecordsNeverExpire(t *testing.T) {
	e, clk := newClockedEngine(t, testConfig(1))
	if err := e.Update(e.Nodes()[0], vector.Of(5, 5), false); err != nil {
		t.Fatal(err)
	}
	clk.advance(24 * time.Hour) // far past any plausible TTL
	if err := e.Update(e.Nodes()[1], vector.Of(1, 1), false); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Taken != 24*sim.Hour {
		t.Fatalf("snapshot taken at %v, want 24h (the tick did not move the clock)", snap.Taken)
	}
	if len(snap.Records) != 4 {
		t.Fatalf("%d records, want 4", len(snap.Records))
	}
	for _, r := range snap.Records {
		for _, now := range []sim.Time{0, snap.Taken, snap.Taken + 365*24*sim.Hour, math.MaxInt64 - 1} {
			if r.Expired(now) {
				t.Fatalf("record %+v reads as expired at %v", r, now)
			}
		}
	}
	resp, err := e.Query(QueryRequest{Demand: vector.Of(4, 4), K: 5, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Node != e.Nodes()[0] {
		t.Fatalf("the record written a day ago did not answer: %+v", resp.Candidates)
	}
}

// TestRoundRobinStartsAtShardZero pins the counter fix: the first
// join lands on shard 0 (not 1), subsequent joins walk the shards in
// order, and the first consistent query consults shard 0.
func TestRoundRobinStartsAtShardZero(t *testing.T) {
	e := newTestEngine(t, testConfig(3))
	for want := 0; want < 6; want++ {
		id, err := e.Join(nil)
		if err != nil {
			t.Fatal(err)
		}
		if id.Shard() != want%3 {
			t.Fatalf("join %d placed on shard %d, want %d", want, id.Shard(), want%3)
		}
	}
	if _, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), Consistent: true}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	// Each shard applied its two joins; only shard 0 also applied the
	// first consistent query.
	for _, ss := range st.Shards {
		want := uint64(2)
		if ss.Shard == 0 {
			want = 3
		}
		if ss.OpsApplied != want {
			t.Fatalf("shard %d applied %d ops, want %d (first consistent query mis-routed): %+v",
				ss.Shard, ss.OpsApplied, want, st.Shards)
		}
	}
}

// TestCacheQuantizeUpperBoundDominates pins the rounding fix in
// quantize: the cell's corners — what a cached set is drawn against —
// must bracket every demand keyed to the cell, lo <= demand <= ub.
// cell/inv can round one ulp below an on-grid demand (cmax 16, quantum
// 0.1125 — two adaptive regrids from 0.05 — demand 1.8 gave
// 1.7999999999999998), which cached a record sitting in that gap for a
// demand it does not dominate. Beyond the table, it sweeps every
// quantum the controller reaches from the default (×1.5 up to
// cacheQuantumMax, then ÷1.25 back down) over demands on exact cell
// boundaries, one ulp either side of them, 0 and cmax, with a
// zero-capacity dimension among the paper's five: the corners must
// bracket each, must be functions of the key alone, and on the
// zero-capacity dimension must both be the demand.
func TestCacheQuantizeUpperBoundDominates(t *testing.T) {
	cmax := vector.Of(25.6, 80, 0, 10, 240, 4096)
	var quanta []float64
	for q := cacheQuantum; ; q = math.Min(q*1.5, cacheQuantumMax) {
		for down := q; ; down = math.Max(down/1.25, cacheQuantum) {
			quanta = append(quanta, down)
			if down == cacheQuantum {
				break
			}
		}
		if q == cacheQuantumMax {
			break
		}
	}
	qc := newQueryCache(cmax, cacheQuantum, cacheQuantumMax, cacheSize, 0)
	for _, quantum := range quanta {
		qc.grid.Store(newGrid(quantum, cmax))
		bounds := map[string][2]vector.Vec{}
		try := func(d int, v float64) {
			demand := vector.New(cmax.Dim())
			demand[d] = v
			key, lo, ub, _ := qc.quantize(demand, 3)
			if !ub.Dominates(demand) || !demand.Dominates(lo) {
				t.Fatalf("quantum %v: corners %v, %v do not bracket demand %v", quantum, lo, ub, demand)
			}
			for z, c := range cmax {
				if c == 0 && (lo[z] != demand[z] || ub[z] != demand[z]) {
					t.Fatalf("quantum %v: zero-capacity dimension %d has corners %v, %v, want the demand's %v", quantum, z, lo[z], ub[z], demand[z])
				}
			}
			if prev, ok := bounds[key]; ok && (!prev[0].Equal(lo) || !prev[1].Equal(ub)) {
				t.Fatalf("quantum %v: key %q has two cells, %v and %v", quantum, key, prev, [2]vector.Vec{lo, ub})
			}
			bounds[key] = [2]vector.Vec{lo, ub}
		}
		for d, c := range cmax {
			edges := []float64{0, c, 1.5}
			for cell := 1.0; c > 0 && cell*quantum*c <= c; cell++ {
				edges = append(edges, cell*quantum*c, cell/(1/(quantum*c)))
			}
			for _, v := range edges {
				for _, w := range []float64{v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1))} {
					try(d, w)
				}
			}
		}
	}

	for _, tc := range []struct{ cmax, quantum, demand float64 }{
		{16, 0.1125, 1.8},
		{16, 0.1125, 3.6},
		{16, 0.1125, 7.2},
		{16, 0.1125, 14.4},
		{4096, 0.1125, 460.8},
		{4096, 0.1125, 3686.4},
		{16, 0.05, 13.600000000000001},
		{25.6, 0.05, 21.760000000000005},
		{240, 0.05, 204.00000000000003},
		{4096, 0.05, 3891.2000000000003},
		{16, 0.1125, 0},
		{16, 0.1125, 1.75},
		{80, 0.05, 40},
	} {
		qc := newQueryCache(vector.Of(tc.cmax), tc.quantum, tc.quantum, cacheSize, 0)
		demand := vector.Of(tc.demand)
		key, lo, ub, _ := qc.quantize(demand, 3)
		if !ub.Dominates(demand) || !demand.Dominates(lo) {
			t.Errorf("cmax %v quantum %v: corners %v, %v do not bracket demand %v",
				tc.cmax, tc.quantum, lo[0], ub[0], tc.demand)
		}
		// The corners belong to the cell, not to the demand that
		// filled it: a neighbor sharing the key shares them.
		for _, d := range []float64{math.Nextafter(tc.demand, 0), math.Nextafter(tc.demand, math.Inf(1))} {
			if k2, lo2, ub2, _ := qc.quantize(vector.Of(d), 3); k2 == key && (lo2[0] != lo[0] || ub2[0] != ub[0]) {
				t.Errorf("cmax %v quantum %v: demands %v and %v share key %q but not the corners (%v, %v vs %v, %v)",
					tc.cmax, tc.quantum, tc.demand, d, key, lo[0], ub[0], lo2[0], ub2[0])
			} else if !ub2.Dominates(vector.Of(d)) || !vector.Of(d).Dominates(lo2) {
				t.Errorf("cmax %v quantum %v: corners %v, %v do not bracket demand %v",
					tc.cmax, tc.quantum, lo2[0], ub2[0], d)
			}
		}
	}
}

// TestSnapshotOutOfRange pins the Snapshot index fix: unknown shard
// indexes return ErrNoShard instead of panicking.
func TestSnapshotOutOfRange(t *testing.T) {
	e := newTestEngine(t, testConfig(2))
	for _, i := range []int{-1, 2, 99} {
		if snap, err := e.Snapshot(i); snap != nil || !errors.Is(err, ErrNoShard) {
			t.Fatalf("Snapshot(%d) = %v, %v; want nil, ErrNoShard", i, snap, err)
		}
	}
	snap, err := e.Snapshot(1)
	if err != nil || snap == nil || snap.Shard != 1 {
		t.Fatalf("Snapshot(1) = %+v, %v", snap, err)
	}
}

// TestConsistentQueryEmptyShard pins the empty-shard error: the
// query names the shard instead of surfacing the backend's confusing
// "node -1 not in cluster".
func TestConsistentQueryEmptyShard(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	for _, id := range e.Nodes() {
		if err := e.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	_, err := e.Query(QueryRequest{Demand: vector.Of(1, 1), Consistent: true})
	if !errors.Is(err, ErrNoNodes) {
		t.Fatalf("query against an empty shard: got %v, want ErrNoNodes", err)
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Shards != 1 || cfg.NodesPerShard != 64 || cfg.CMax == nil ||
		cfg.QueueDepth <= 0 || cfg.RebalanceInterval != 0 {
		t.Fatalf("defaults not resolved: %+v", cfg)
	}
	if _, err := (Config{Shards: -1}).withDefaults(); err == nil {
		t.Fatal("negative Shards accepted")
	}
	if _, err := (Config{NodesPerShard: 1}).withDefaults(); err == nil {
		t.Fatal("NodesPerShard=1 accepted")
	}
	if _, err := (Config{CMax: vector.Of(0, 0)}).withDefaults(); err == nil {
		t.Fatal("zero CMax accepted")
	}
}
