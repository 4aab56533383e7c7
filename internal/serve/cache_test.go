package serve

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"pidcan/internal/vector"
)

// TestCachedQueryAllocations pins the allocations of a cached hit — the
// cache key, the cell's corners, the answer, what externalizing it
// takes — of an uncached query (the candidates and the answer), of a
// fill's scan (its entry and versions, the candidates, what the entry
// keeps), of the walk that validates an entry when it absorbs nothing
// (none) and of one that absorbs a write (the entry's copy: itself, its
// ids, its rows and its versions).
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
	key, lo, ub, _ := e.cache.quantize(q.Demand, q.K)
	fill := testing.AllocsPerRun(200, func() { e.searchShards(lo, ub, q.K, newCacheEntry(len(e.shards))) })
	t.Logf("a cached hit allocates %.0f times, an uncached query %.0f, a fill %.0f", hit, uncached, fill)
	if hit > 5 {
		t.Fatalf("a cached hit allocates %.0f times, want <= 5", hit)
	}
	if uncached > 2 {
		t.Fatalf("an uncached query allocates %.0f times, want <= 2", uncached)
	}
	if fill > 4 {
		t.Fatalf("a fill allocates %.0f times, want <= 4", fill)
	}

	// walk resets the entry's version of shard 0 to before its last
	// change set and validates it again.
	walk := func(absorbs bool) float64 {
		ent := e.cache.newGen[key]
		last := e.shards[0].snapshot().changes
		if len(last.nodes) != 1 {
			t.Fatal("shard 0's last change set does not hold the one write")
		}
		return testing.AllocsPerRun(200, func() {
			ent.seen[0].Store(last.version - 1)
			if cur, ok := ent.holds(lo, ub, q.K, e.shards, e.cache.scale); !ok || (cur != ent) != absorbs {
				t.Fatalf("the entry held %v, replaced %v; want it held, replaced %v", ok, cur != ent, absorbs)
			}
		})
	}
	if n := walk(false); n != 0 {
		t.Fatalf("a walk that absorbs nothing allocates %.0f times, want 0", n)
	}
	// A node entering the set: the next lookup absorbs it.
	if err := e.Update(nodes[2], vector.Of(4.5, 4.5), false); err != nil {
		t.Fatal(err)
	}
	if resp := mustQuery(t, e, q); !resp.Cached || resp.Candidates[0].Node != nodes[2] {
		t.Fatalf("cached=%v %+v, want a hit led by the entering %v", resp.Cached, resp.Candidates, nodes[2])
	}
	absorb := walk(true)
	t.Logf("an absorbing walk allocates %.0f times, on top of the hit's", absorb)
	if absorb > 4 {
		t.Fatalf("an absorbing walk allocates %.0f times, want <= 4", absorb)
	}
}

// TestCacheBytesPerEntry is the memory budget of a cache entry at the
// repo benchmark's wire_cached_1k shape: 4 x 250 nodes in [0.2, 1]·cmax,
// 2 048 demand profiles in [0, 0.6]·cmax, k = 3 — what one more
// cached cell holds live, map slot and key included. Measured: 653 B.
func TestCacheBytesPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what is allocated")
	}
	cfg := testConfig(4)
	cfg.NodesPerShard = 250
	cfg.CMax = vector.Of(25.6, 80, 10, 240, 4096)
	rng := rand.New(rand.NewSource(1))
	draw := func(lo, hi float64) vector.Vec {
		v := vector.New(cfg.CMax.Dim())
		for d := range v {
			v[d] = cfg.CMax[d] * (lo + (hi-lo)*rng.Float64())
		}
		return v
	}
	e := seededEngine(t, cfg, func() vector.Vec { return draw(0.2, 1) })
	profiles := make([]vector.Vec, 2048)
	for i := range profiles {
		profiles[i] = draw(0, 0.6)
	}
	before := heapAfterGC()
	for _, d := range profiles {
		mustQuery(t, e, QueryRequest{Demand: d, K: 3})
	}
	after := heapAfterGC()
	members := 0
	for _, gen := range []map[string]*cacheEntry{e.cache.newGen, e.cache.oldGen} {
		for _, ent := range gen {
			members += len(ent.ids)
		}
	}
	n := e.cache.entries()
	per := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
	t.Logf("%d entries, %.0f B each, %.1f members each", n, per, float64(members)/float64(n))
	if per > 680 {
		t.Fatalf("a cache entry holds %.0f B, budget 680", per)
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
		return mustQuery(t, e, QueryRequest{Demand: demand, K: 2, NoCache: true}).Candidates
	}

	// A fill quantized on the fine grid, put after a coarsening.
	key, lo, ub, g := e.cache.quantize(fine, 2)
	ent := newCacheEntry(len(e.shards))
	e.searchShards(lo, ub, 2, ent)
	e.cache.regrid(g.quantum * 1.5)
	e.cache.put(key, g, ent)
	if k2, _, _, _ := e.cache.quantize(coarse, 2); k2 != key {
		t.Fatalf("%v keys %q on the coarse grid, want the fine key %q of %v", coarse, k2, key, fine)
	}
	if got := mustQuery(t, e, QueryRequest{Demand: coarse, K: 2}); got.Cached || !sameCandidates(got.Candidates, fresh(coarse)) {
		t.Fatalf("after the re-grid %v answered %+v (cached=%v), want the fresh fill %+v",
			coarse, got.Candidates, got.Cached, fresh(coarse))
	}

	// A lookup quantized on the coarse grid, made after a refinement
	// whose fill put the same key.
	key, lo, ub, coarseG := e.cache.quantize(coarse, 2)
	e.cache.regrid(g.quantum)
	if got := mustQuery(t, e, QueryRequest{Demand: fine, K: 2}); got.Cached || len(got.Candidates) != 2 {
		t.Fatalf("%v answered %+v (cached=%v), want a fill of both nodes", fine, got.Candidates, got.Cached)
	}
	if k2, _, _, _ := e.cache.quantize(fine, 2); k2 != key {
		t.Fatalf("%v keys %q on the fine grid, want the coarse key %q of %v", fine, k2, key, coarse)
	}
	if ent, hit := e.cache.get(key, coarseG, lo, ub, 2, e.shards); hit {
		t.Fatalf("a lookup quantized on the coarse grid hit the fine grid's entry: %+v", ent.ids)
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
// shard 0's six nodes first), availabilities and demands in quarter
// units of the 10 x 10 capacity — finer than the half-unit cells, so a
// record can dominate a demand but not its cell's upper corner.
type fzScript []byte

func (s fzScript) update(node int, a0, a1 float64) fzScript {
	return append(s, fzUpdate, byte(node), byte(4*a0), byte(4*a1))
}
func (s fzScript) join(shard int, a0, a1 float64) fzScript {
	return append(s, fzJoin, byte(shard), byte(4*a0), byte(4*a1))
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
// query's answer — hit or fill — is the answer a NoCache query at the
// caller's demand gives, and the referee's over the engine's records:
// candidate for candidate and bit for bit, ties included.
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
	// Idle ticks: republications with nothing dirty keep the entry,
	// whether or not they move the clock.
	f.Add([]byte(base.query(4, 4, 2).tick(0).query(4, 4, 2).tick(3).update(7, 8, 8).
		query(4, 4, 2).tick(2).query(4, 4, 2).tick(0).query(4, 4, 2)))
	// Migrations and joins under cached queries.
	f.Add([]byte(base.query(4, 4, 3).migrate(0, 1).query(4, 4, 3).join(0, 4.5, 4.5).
		query(4, 4, 3).migrate(6, 0).query(4, 4, 3).leave(1).query(4, 4, 3)))
	// A fill of (4, 4) put after a coarsening: on the new grid its key
	// names the cell of (5.5, 5.5), which node 0 does not dominate; then
	// the grid is refined back under a fill of that cell.
	f.Add([]byte(base.regrid(1, 4, 4, 2).query(5.5, 5.5, 2).regrid(0, 5.5, 5.5, 2).query(4, 4, 2)))
	// Records that dominate a demand but not its cell's upper corner
	// (3.5, 3.5): node 1 is in the set of a fill at (3.5, 3.5) without
	// answering it, and answers (3.25, 3.25) on the hit; node 2 enters
	// the set later, absorbed, and answers (3.25, 3.5) but not
	// (3.5, 3.25).
	f.Add([]byte(base.update(1, 3.25, 3.5).query(3.5, 3.5, 2).query(3.25, 3.25, 2).
		update(2, 3.5, 3.25).query(3.25, 3.5, 2).query(3.5, 3.25, 2).query(3.25, 3.25, 3)))
	// A surplus tie the scores round apart: (0.75, 1) scores one ulp
	// above (0.5, 1.25), the one record dominating the cell's upper
	// corner at k = 1, yet ties it on surplus at (0.25, 0.25) and wins on
	// id — inside the cutoff only by its tie slack: on the fill, and
	// when it leaves the set and enters it again, absorbed.
	f.Add([]byte(base.update(2, 0.75, 1).update(3, 0.5, 1.25).query(0.25, 0.25, 1).query(0.25, 0.25, 1).
		update(2, 0, 0).query(0.25, 0.25, 1).update(2, 0.75, 1).query(0.25, 0.25, 1)))
	// The k-th record dominating the upper corner leaves: the entry can
	// no longer tell what ranks next, and misses.
	f.Add([]byte(base.query(4, 4, 1).leave(0).query(4, 4, 1).query(4.25, 4.25, 1)))

	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := testConfig(2)
		cfg.NodesPerShard = 6
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
			return vector.Of(float64(arg(i)%41)/4, float64(arg(i+1)%41)/4)
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
				uncached := req
				uncached.NoCache = true
				want := mustQuery(t, e, uncached).Candidates
				if !sameCandidates(got.Candidates, want) {
					t.Fatalf("op at byte %d: %+v (cached=%v) answered\n%+v\nwant the uncached answer\n%+v",
						i, req, got.Cached, got.Candidates, want)
				}
				if ref := e.Referee(req.Demand, req.K); !sameCandidates(want, ref) {
					t.Fatalf("op at byte %d: %+v answered uncached\n%+v\nwant the referee's\n%+v", i, req, want, ref)
				}
				i += 4
			case fzRegrid:
				demand, k := vector.Of(float64(arg(i+2)%40)/4, float64(arg(i+3)%40)/4), 1+int(arg(i+4)%4)
				key, lo, ub, g := e.cache.quantize(demand, k)
				ent := newCacheEntry(len(e.shards))
				e.searchShards(lo, ub, k, ent)
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

// BenchmarkCachedQueryZipf is the cached read path at the repo
// benchmark's wire_cached_1k shape, in process: 4 x 250 nodes in
// [0.2, 1]·cmax, 2 048 demand profiles in [0, 0.6]·cmax drawn
// Zipf(1.1), k = 3, and one update in fifty operations — so hits walk,
// and absorb, the changes since their entry's last lookup. It reports
// the hit rate and the entries a fill scans. Its NoCache side runs the
// same operations with every query uncached: the cache's gain on this
// workload is the ratio of the two.
func BenchmarkCachedQueryZipf(b *testing.B) {
	b.Run("cached", func(b *testing.B) { benchQueryZipf(b, false) })
	b.Run("NoCache", func(b *testing.B) { benchQueryZipf(b, true) })
}

func benchQueryZipf(b *testing.B, noCache bool) {
	cfg := testConfig(4)
	cfg.NodesPerShard = 250
	cfg.CMax = vector.Of(25.6, 80, 10, 240, 4096)
	cfg.CacheAdaptEvery = 4096
	rng := rand.New(rand.NewSource(1))
	draw := func(lo, hi float64) vector.Vec {
		v := vector.New(cfg.CMax.Dim())
		for d := range v {
			v[d] = cfg.CMax[d] * (lo + (hi-lo)*rng.Float64())
		}
		return v
	}
	e := seededEngine(b, cfg, func() vector.Vec { return draw(0.2, 1) })
	profiles := make([]vector.Vec, 2048)
	for i := range profiles {
		profiles[i] = draw(0, 0.6)
	}
	nodes := e.Nodes()
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(profiles)-1))
	op := func() {
		if rng.Intn(50) == 0 {
			if err := e.Update(nodes[rng.Intn(len(nodes))], draw(0.2, 1), false); err != nil {
				b.Fatal(err)
			}
			return
		}
		if _, err := e.Query(QueryRequest{Demand: profiles[zipf.Uint64()], K: 3, NoCache: noCache}); err != nil {
			b.Fatal(err)
		}
	}
	for range 100_000 { // warm: the entries' sets and histories at steady state
		op()
	}
	before := e.Stats()
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
	st := e.Stats()
	if !noCache {
		hits, misses := st.CacheHits-before.CacheHits, st.CacheMisses-before.CacheMisses
		b.ReportMetric(float64(hits)/float64(hits+misses), "hit_rate")
	}
	b.ReportMetric(float64(st.IndexScannedRecords-before.IndexScannedRecords)/float64(st.IndexSearches-before.IndexSearches), "scanned/fill")
}
