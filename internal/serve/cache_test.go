package serve

import (
	"math"
	"slices"
	"testing"
	"time"

	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// TestCachedQueryAllocations pins the allocations of a cached hit — the
// cache key, the cell's bound, the answer's private copy, what
// externalizing it takes — and of the walk that validates it: none.
func TestCachedQueryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cfg := testConfig(4)
	cfg.NodesPerShard = 64
	e := newTestEngine(t, cfg)
	nodes := e.Nodes()
	for i, a := range []vector.Vec{vector.Of(5, 5), vector.Of(6, 6), vector.Of(7, 7)} {
		if err := e.Update(nodes[i*64], a, false); err != nil {
			t.Fatal(err)
		}
	}
	q := QueryRequest{Demand: vector.Of(4, 4), K: 3}
	mustQuery(t, e, q)
	// A write the answer survives, for the walk below to examine.
	if err := e.Update(nodes[1], vector.Of(1, 1), false); err != nil {
		t.Fatal(err)
	}
	if resp := mustQuery(t, e, q); !resp.Cached || len(resp.Candidates) != 3 {
		t.Fatalf("cached=%v with %d candidates, want a hit with 3", resp.Cached, len(resp.Candidates))
	}
	hit := testing.AllocsPerRun(200, func() { mustQuery(t, e, q) })
	uncached := testing.AllocsPerRun(200, func() { mustQuery(t, e, QueryRequest{Demand: q.Demand, K: 3, NoCache: true}) })
	t.Logf("a cached hit allocates %.0f times, an uncached query %.0f", hit, uncached)
	if hit > 5 {
		t.Fatalf("a cached hit allocates %.0f times, want <= 5", hit)
	}

	key, cell, _ := e.cache.quantize(q.Demand, q.K)
	ent := e.cache.newGen[key]
	last := e.shards[0].snapshot().changes
	if len(last.nodes) != 1 {
		t.Fatal("shard 0's last change set does not hold the one write")
	}
	before := last.version - 1
	walk := testing.AllocsPerRun(200, func() {
		ent.seen[0].Store(before)
		if !ent.holds(cell, q.K, e.shards, cfg.CMax) {
			t.Fatal("the entry did not survive a write outside its cell")
		}
	})
	if walk != 0 {
		t.Fatalf("the validation walk allocates %.0f times, want 0", walk)
	}
}

// TestCacheKeyIsReadOnItsOwnGrid races the controller by hand: the same
// cell indices bound a larger demand on a coarser grid, so an entry
// quantized on one grid must never answer a lookup quantized on
// another — neither a fill put after a re-grid nor a lookup quantized
// before one.
func TestCacheKeyIsReadOnItsOwnGrid(t *testing.T) {
	cfg := testConfig(2)
	e := newTestEngine(t, cfg)
	nodes := e.Nodes()
	// Node 0 dominates the fine cell of (4, 4) but not the coarse cell
	// of (5.5, 5.5), whose indices are the same.
	if err := e.Update(nodes[0], vector.Of(4.5, 4.5), false); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(nodes[1], vector.Of(7, 7), false); err != nil {
		t.Fatal(err)
	}
	fine, coarse := vector.Of(4, 4), vector.Of(5.5, 5.5)
	fresh := func(demand vector.Vec) []Candidate {
		_, cell, _ := e.cache.quantize(demand, 2)
		return e.fwd.Externalize(rescore(bestFit(e.searchShards(cell, 2, nil), 2), demand, cfg.CMax, 2))
	}

	// A fill quantized on the fine grid, put after a coarsening.
	key, cell, g := e.cache.quantize(fine, 2)
	ent := newCacheEntry(len(e.shards))
	ent.keep(bestFit(e.searchShards(cell, 2, ent), 2), 2)
	e.cache.regrid(g.quantum * 1.5)
	e.cache.put(key, g, ent)
	if k2, _, _ := e.cache.quantize(coarse, 2); k2 != key {
		t.Fatalf("%v keys %q on the coarse grid, want the fine key %q of %v", coarse, k2, key, fine)
	}
	if got := mustQuery(t, e, QueryRequest{Demand: coarse, K: 2}); got.Cached || !sameCandidates(got.Candidates, fresh(coarse)) {
		t.Fatalf("after the re-grid %v answered %+v (cached=%v), want the fresh fill %+v",
			coarse, got.Candidates, got.Cached, fresh(coarse))
	}

	// A lookup quantized on the coarse grid, made after a refinement
	// whose fill put the same key.
	key, cell, coarseG := e.cache.quantize(coarse, 2)
	e.cache.regrid(g.quantum)
	if got := mustQuery(t, e, QueryRequest{Demand: fine, K: 2}); got.Cached || len(got.Candidates) != 2 {
		t.Fatalf("%v answered %+v (cached=%v), want a fill of both nodes", fine, got.Candidates, got.Cached)
	}
	if k2, _, _ := e.cache.quantize(fine, 2); k2 != key {
		t.Fatalf("%v keys %q on the fine grid, want the coarse key %q of %v", fine, k2, key, coarse)
	}
	if cands, hit := e.cache.get(key, coarseG, cell, 2, e.shards); hit {
		t.Fatalf("a lookup quantized on the coarse grid hit the fine grid's entry: %+v", cands)
	}
}

// TestCacheEntryExpiresWithItsCandidates: a match the merged scan
// found before the bound overtook it, but that the ranking drops, does
// not bound the entry's life — only the kept candidates' expiries do.
func TestCacheEntryExpiresWithItsCandidates(t *testing.T) {
	cfg := testConfig(2)
	cfg.RecordTTL = 45 * sim.Second
	e, clk := newClockedEngine(t, cfg)
	nodes := e.Nodes() // shard 0's four, then shard 1's
	// Shard 0's scan starts below shard 1's at a node that does not
	// match, so it is stepped first and finds the poorer fit.
	for i, a := range map[int]vector.Vec{0: vector.Of(6, 6), 1: vector.Of(8, 0.5)} {
		if err := e.Update(nodes[i], a, false); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(20 * time.Second)
	if err := e.Update(nodes[4], vector.Of(5, 5), false); err != nil {
		t.Fatal(err)
	}
	q := QueryRequest{Demand: vector.Of(4, 4), K: 1}
	_, cell, _ := e.cache.quantize(q.Demand, q.K)
	if n := len(e.searchShards(cell, q.K, nil)); n != 2 {
		t.Fatalf("the scan returned %d matches, want both: the one the ranking drops expires first", n)
	}
	want := nodes[4]
	if got := mustQuery(t, e, q); got.Cached || len(got.Candidates) != 1 || got.Candidates[0].Node != want {
		t.Fatalf("answered %+v (cached=%v), want a fill of %v", got.Candidates, got.Cached, want)
	}
	clk.advance(30 * time.Second) // past the dropped match's expiry, not the candidate's
	if got := mustQuery(t, e, q); !got.Cached || len(got.Candidates) != 1 || got.Candidates[0].Node != want {
		t.Fatalf("answered %+v (cached=%v), want a hit of %v", got.Candidates, got.Cached, want)
	}
	clk.advance(20 * time.Second) // past the candidate's
	if got := mustQuery(t, e, q); got.Cached {
		t.Fatalf("answered %+v from an entry whose candidate expired", got.Candidates)
	}
}

// Op codes of FuzzCacheMatchesFill's scripts: one code byte, then the
// op's argument bytes (missing ones read as 0).
const (
	fzUpdate  = iota // node, avail[0], avail[1]
	fzJoin           // shard, avail[0], avail[1]
	fzLeave          // node
	fzMigrate        // node, destination shard
	fzTick           // idle tick after 10 s times the byte mod 4 (0: a republication with nothing dirty)
	fzQuery          // demand[0], demand[1], k
	fzRegrid         // steps, demand[0], demand[1], k: a fill quantized before the grid becomes 1.5^(steps mod 4) times the configured, put after
	fzOps
)

// fzScript builds a FuzzCacheMatchesFill script. Nodes are picked by
// position in Engine.Nodes (ascending global id: with nothing migrated,
// shard 0's six nodes first), availabilities in half units and demands
// in quarter units of the 10 x 10 capacity.
type fzScript []byte

func (s fzScript) update(node int, a0, a1 float64) fzScript {
	return append(s, fzUpdate, byte(node), byte(2*a0), byte(2*a1))
}
func (s fzScript) join(shard int, a0, a1 float64) fzScript {
	return append(s, fzJoin, byte(shard), byte(2*a0), byte(2*a1))
}
func (s fzScript) leave(node int) fzScript { return append(s, fzLeave, byte(node)) }
func (s fzScript) migrate(node, to int) fzScript {
	return append(s, fzMigrate, byte(node), byte(to))
}
func (s fzScript) tick(tens int) fzScript { return append(s, fzTick, byte(tens)) }
func (s fzScript) query(d0, d1 float64, k int) fzScript {
	return append(s, fzQuery, byte(4*d0), byte(4*d1), byte(k-1))
}
func (s fzScript) regrid(steps int, d0, d1 float64, k int) fzScript {
	return append(s, fzRegrid, byte(steps), byte(4*d0), byte(4*d1), byte(k-1))
}

// FuzzCacheMatchesFill is the exactness property of the query cache:
// on two hand-clocked shards under random updates, joins, leaves,
// migrations, idle ticks and re-grids racing a fill, every cached
// query's answer — hit or fill — equals a fresh fill of its cell on the
// snapshots current at the lookup, rescored to the caller's demand,
// candidate for candidate and bit for bit. Records expire (RecordTTL),
// so candidate expiry is part of it.
func FuzzCacheMatchesFill(f *testing.F) {
	var base fzScript
	base = base.update(0, 5, 5).update(6, 6, 6)
	// A change at exactly the k-th surplus: node 2 ties the k-th
	// candidate (6/0) and wins on id; node 9 ties it and loses.
	f.Add([]byte(base.query(4, 4, 2).query(4.25, 4, 2).
		update(9, 6, 6).query(4, 4, 2).update(2, 6, 6).query(4, 4, 2).query(4.25, 4.25, 2)))
	// Fewer than k candidates: any node entering the cell changes the
	// answer, however poor its fit; then a candidate leaves.
	f.Add([]byte(base.query(4, 4, 4).update(3, 10, 10).query(4, 4, 4).
		update(4, 2, 9).query(4, 4, 4).leave(0).query(4, 4, 4).query(4, 4, 1)))
	// A cut history: a node enters the answer, then 140 one-node
	// publications on its shard outside the cell push that change past
	// what a shard retains.
	cut := base.query(4, 4, 2).update(1, 4.5, 4.5)
	for range 140 {
		cut = cut.update(5, 1, 1)
	}
	f.Add([]byte(cut.query(4, 4, 2).query(4, 4, 2)))
	// The walk-length bound: 80 such publications on each shard, each
	// history within what it retains, together past one walk.
	walk := base.query(4, 4, 2)
	for range 80 {
		walk = walk.update(5, 1, 1).update(11, 1, 1)
	}
	f.Add([]byte(walk.query(4, 4, 2).query(4, 4, 2)))
	// Idle ticks: republications with nothing dirty keep the entry; one
	// that moves the clock past a candidate's expiry does not.
	f.Add([]byte(base.query(4, 4, 2).tick(0).query(4, 4, 2).tick(3).update(7, 8, 8).
		query(4, 4, 2).tick(2).query(4, 4, 2).tick(0).query(4, 4, 2)))
	// Migrations and joins under cached queries.
	f.Add([]byte(base.query(4, 4, 3).migrate(0, 1).query(4, 4, 3).join(0, 4.5, 4.5).
		query(4, 4, 3).migrate(6, 0).query(4, 4, 3).leave(1).query(4, 4, 3)))
	// A fill of (4, 4) put after a coarsening: on the new grid its key
	// names the cell of (5.5, 5.5), which node 0 does not dominate; then
	// the grid is refined back under a fill of that cell.
	f.Add([]byte(base.regrid(1, 4, 4, 2).query(5.5, 5.5, 2).regrid(0, 5.5, 5.5, 2).query(4, 4, 2)))

	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := testConfig(2)
		cfg.NodesPerShard = 6
		cfg.RecordTTL = 45 * sim.Second
		e, clk := newClockedEngine(t, cfg)
		arg := func(i int) byte {
			if i < len(script) {
				return script[i]
			}
			return 0
		}
		pick := func(b byte) (GlobalID, bool) {
			nodes := e.Nodes()
			if len(nodes) == 0 {
				return 0, false
			}
			return nodes[int(b)%len(nodes)], true
		}
		avail := func(i int) vector.Vec {
			return vector.Of(float64(arg(i)%21)/2, float64(arg(i+1)%21)/2)
		}
		for i := 0; i < len(script); {
			switch code := script[i] % fzOps; code {
			case fzUpdate:
				if id, ok := pick(arg(i + 1)); ok {
					e.Update(id, avail(i+2), false)
				}
				i += 4
			case fzJoin:
				e.JoinOn(int(arg(i+1))%cfg.Shards, avail(i+2))
				i += 4
			case fzLeave:
				if id, ok := pick(arg(i + 1)); ok {
					e.Leave(id)
				}
				i += 2
			case fzMigrate:
				if id, ok := pick(arg(i + 1)); ok {
					e.Migrate(id, int(arg(i+2))%cfg.Shards) // a shard's last node stays: ErrLastNode
				}
				i += 3
			case fzTick:
				clk.advance(time.Duration(arg(i+1)%4) * 10 * time.Second)
				i += 2
			case fzQuery:
				req := QueryRequest{
					Demand: vector.Of(float64(arg(i+1)%40)/4, float64(arg(i+2)%40)/4),
					K:      1 + int(arg(i+3)%4),
				}
				got := mustQuery(t, e, req)
				_, cell, _ := e.cache.quantize(req.Demand, req.K)
				fill := bestFit(e.searchShards(cell, req.K, nil), req.K)
				want := e.fwd.Externalize(rescore(fill, req.Demand, cfg.CMax, req.K))
				if !sameCandidates(got.Candidates, want) {
					t.Fatalf("op at byte %d: %+v (cached=%v) answered\n%+v\nwant the fresh fill\n%+v",
						i, req, got.Cached, got.Candidates, want)
				}
				i += 4
			case fzRegrid:
				demand, k := vector.Of(float64(arg(i+2)%40)/4, float64(arg(i+3)%40)/4), 1+int(arg(i+4)%4)
				key, cell, g := e.cache.quantize(demand, k)
				ent := newCacheEntry(len(e.shards))
				ent.keep(bestFit(e.searchShards(cell, k, ent), k), k)
				e.cache.regrid(e.cache.qMin * math.Pow(1.5, float64(arg(i+1)%4)))
				e.cache.put(key, g, ent)
				i += 5
			}
		}
	})
}

// sameCandidates reports whether a and b are the same candidates,
// bit for bit.
func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Surplus) != math.Float64bits(b[i].Surplus) ||
			!slices.EqualFunc(a[i].Avail, b[i].Avail, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			return false
		}
	}
	return true
}
