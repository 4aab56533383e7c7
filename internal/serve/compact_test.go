package serve

import (
	"sync/atomic"
	"testing"
	"time"

	"pidcan/internal/vector"
)

// migrateChain moves one shard-0 node around the engine's shards
// n times and returns (external id, physical id after each move).
func migrateChain(t *testing.T, e *Engine, n int) (GlobalID, []GlobalID) {
	t.Helper()
	var ext GlobalID
	for _, id := range e.Nodes() {
		if id.Shard() == 0 {
			ext = id
			break
		}
	}
	if err := e.Update(ext, vector.Of(3, 3), true); err != nil {
		t.Fatal(err)
	}
	var phys []GlobalID
	shards := len(e.shards)
	cur := 0
	for i := 0; i < n; i++ {
		cur = (cur + 1) % shards
		if err := e.Migrate(ext, cur); err != nil {
			t.Fatal(err)
		}
		phys = append(phys, e.fwd.resolve(ext))
	}
	return ext, phys
}

// TestFwdPathCompression pins the O(1)-repoint design: former
// physical ids link one step at a time (old -> next home), forming a
// chain, and a lookup through the chain flattens it union-find
// style.
func TestFwdPathCompression(t *testing.T) {
	e := newTestEngine(t, testConfig(3))
	_, phys := migrateChain(t, e, 3)
	p1, p2, cur := phys[0], phys[1], phys[2]

	e.fwd.mu.RLock()
	hop := e.fwd.next[p1]
	e.fwd.mu.RUnlock()
	if hop != p2 {
		t.Fatalf("next[%v] = %v before lookup, want the one-step link %v", p1, hop, p2)
	}
	if got := e.fwd.resolve(p1); got != cur {
		t.Fatalf("resolve(%v) = %v, want %v", p1, got, cur)
	}
	e.fwd.mu.RLock()
	hop = e.fwd.next[p1]
	e.fwd.mu.RUnlock()
	if hop != cur {
		t.Fatalf("next[%v] = %v after lookup, want path-compressed %v", p1, hop, cur)
	}
}

// TestFwdAliasExpiry pins the compaction satellite: former physical
// ids are reclaimed once no holder (cache entry, stale snapshot,
// in-flight scatter leg) can still present them, so the table is
// bounded by live migrated nodes, not lifetime migrations. The
// external id keeps routing forever.
func TestFwdAliasExpiry(t *testing.T) {
	e := newTestEngine(t, testConfig(3))
	base := time.Now()
	var offset atomic.Int64
	e.fwd.nowFn = func() time.Time { return base.Add(time.Duration(offset.Load())) }

	const moves = 5
	ext, phys := migrateChain(t, e, moves)
	cur := phys[len(phys)-1]
	grown := e.fwd.Count()
	// next holds the external id plus one entry per former physical
	// id (the external id's first home counts once).
	if grown != moves {
		t.Fatalf("forwarded ids after %d moves: %d, want %d", moves, grown, moves)
	}

	offset.Store(int64(e.fwd.grace) + int64(time.Second))
	if got := e.fwd.Count(); got != 1 {
		t.Fatalf("forwarded ids after grace expiry: %d, want 1 (external id only)", got)
	}
	// The external id still routes...
	if got := e.fwd.resolve(ext); got != cur {
		t.Fatalf("resolve(ext) = %v after reclaim, want %v", got, cur)
	}
	if err := e.Update(ext, vector.Of(4, 4), false); err != nil {
		t.Fatalf("update via external id after reclaim: %v", err)
	}
	// ...and the reclaimed intermediate id no longer does.
	if got := e.fwd.resolve(phys[0]); got != phys[0] {
		t.Fatalf("reclaimed alias %v still resolves to %v", phys[0], got)
	}
	// Externalization of the current physical id survives reclaim
	// (Nodes must keep reporting the stable external identity).
	nodes := e.Nodes()
	found := false
	for _, id := range nodes {
		if id == ext {
			found = true
		}
		if id == cur {
			t.Fatalf("Nodes reports the physical id %v instead of the external %v", cur, ext)
		}
	}
	if !found {
		t.Fatalf("external id %v missing from Nodes %v", ext, nodes)
	}
	// Leave drops the remaining entries entirely.
	if err := e.Leave(ext); err != nil {
		t.Fatal(err)
	}
	if got := e.fwd.Count(); got != 0 {
		t.Fatalf("forwarded ids after leave: %d, want 0", got)
	}
}

// TestFwdRepointIdempotent pins what recovery relies on: replaying a
// repoint that the restored checkpoint already contains must not
// duplicate aliases.
func TestFwdRepointIdempotent(t *testing.T) {
	ft := NewForwardTable(time.Minute, GlobalID.Shard, nil)
	x := Global(0, 1)
	p1, p2 := Global(1, 7), Global(2, 9)
	ft.Repoint(x, x, p1)
	ft.Repoint(x, p1, p2)
	ft.Repoint(x, p1, p2) // replayed duplicate
	ft.mu.RLock()
	aliases := len(ft.aliases[x])
	ft.mu.RUnlock()
	if aliases != 1 {
		t.Fatalf("%d aliases after duplicate repoint, want 1", aliases)
	}
	if got := ft.resolve(x); got != p2 {
		t.Fatalf("resolve(x) = %v, want %v", got, p2)
	}
	if got := ft.resolve(p1); got != p2 {
		t.Fatalf("resolve(p1) = %v, want %v", got, p2)
	}
}

// TestCacheEpochInvalidation pins exact invalidation on the default
// cache settings: an update that enters a cached answer is seen by the
// very next query, absorbed into the entry (a hit), a write the answer
// cannot see keeps it a hit, and a cached candidate that leaves is gone
// from the next answer.
func TestCacheEpochInvalidation(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	nodes := e.Nodes()
	if err := e.Update(nodes[0], vector.Of(5, 5), false); err != nil {
		t.Fatal(err)
	}
	q := QueryRequest{Demand: vector.Of(4, 4), K: 8}
	if resp := mustQuery(t, e, q); resp.Cached {
		t.Fatal("first query: a hit, want a miss")
	}
	if resp := mustQuery(t, e, q); !resp.Cached || len(resp.Candidates) != 1 {
		t.Fatalf("second query: cached=%v with %d candidates, want a hit with 1", resp.Cached, len(resp.Candidates))
	}

	// Read-your-writes: one update entering the answer.
	if err := e.Update(nodes[1], vector.Of(6, 6), false); err != nil {
		t.Fatal(err)
	}
	if resp := mustQuery(t, e, q); !resp.Cached || len(resp.Candidates) != 2 {
		t.Fatalf("after an entering update: cached=%v with %d candidates, want a hit with 2", resp.Cached, len(resp.Candidates))
	}

	// A node that does not dominate the cell cannot enter the answer.
	if err := e.Update(nodes[2], vector.Of(1, 1), false); err != nil {
		t.Fatal(err)
	}
	if resp := mustQuery(t, e, q); !resp.Cached || len(resp.Candidates) != 2 {
		t.Fatalf("after an update outside the cell: cached=%v with %d candidates, want a hit with 2", resp.Cached, len(resp.Candidates))
	}

	// A cached candidate leaving.
	if err := e.Leave(nodes[0]); err != nil {
		t.Fatal(err)
	}
	if resp := mustQuery(t, e, q); !resp.Cached || len(resp.Candidates) != 1 || resp.Candidates[0].Node != nodes[1] {
		t.Fatalf("after a candidate left: cached=%v %+v, want a hit with only %v", resp.Cached, resp.Candidates, nodes[1])
	}
}

func mustQuery(t *testing.T, e *Engine, q QueryRequest) QueryResponse {
	t.Helper()
	resp, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
