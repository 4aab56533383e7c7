package serve

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pidcan/internal/vector"
)

// TestCachedQueryAllocations pins the allocations of the read path: a
// cached hit and an uncached Engine.Query make one each, the answer's
// slice; a fill's scan into a caller's buffer makes none; and a hit
// whose entry a recheck keeps makes two more than a hit, the stamped
// copy of the entry and its index numbers.
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
	if resp := mustQuery(t, e, q); !resp.Cached || len(resp.Candidates) != 3 {
		t.Fatalf("cached=%v with %d candidates, want a hit with 3", resp.Cached, len(resp.Candidates))
	}
	hit := testing.AllocsPerRun(200, func() { mustQuery(t, e, q) })
	uncached := testing.AllocsPerRun(200, func() { mustQuery(t, e, QueryRequest{Demand: q.Demand, K: 3, NoCache: true}) })
	indexed := make([]uint64, len(e.shards))
	var buf [16]Candidate
	fill := testing.AllocsPerRun(200, func() { e.searchShards(buf[:0], q.Demand, q.K, indexed, e.stripe()) })

	// A write to shard 3 outside the answer: every ask below finds the
	// entry stamped with shard 3's old index, rechecks it and keeps it.
	if err := e.Update(nodes[3*64], vector.Of(1, 1), false); err != nil {
		t.Fatal(err)
	}
	slot := slotOf(q.Demand, q.K)
	old := e.cache.slots.Load()[slot].Load()
	before := e.Stats().CacheRevalidated
	rechecked := testing.AllocsPerRun(200, func() {
		e.cache.slots.Load()[slot].Store(old)
		mustQuery(t, e, q)
	})
	if n := e.Stats().CacheRevalidated - before; n < 200 {
		t.Fatalf("%d of the rechecked asks were revalidated hits, want every one", n)
	}
	t.Logf("a cached hit allocates %.0f times, a rechecked hit %.0f, an uncached query %.0f, a fill's scan %.0f",
		hit, rechecked, uncached, fill)
	if hit > 1 {
		t.Fatalf("a cached hit allocates %.0f times, want <= 1", hit)
	}
	if uncached > 1 {
		t.Fatalf("an uncached query allocates %.0f times, want <= 1", uncached)
	}
	if fill > 0 {
		t.Fatalf("a fill's scan into a caller's buffer allocates %.0f times, want 0", fill)
	}
	if rechecked > hit+2 {
		t.Fatalf("a rechecked hit allocates %.0f times, want <= %.0f (a hit's and two)", rechecked, hit+2)
	}
}

// TestCacheRecheck holds the recheck of the shards that moved to its
// rule, one write at a time. Two clocked shards of four nodes; node 0
// (shard 0) at (5, 5), node 4 (shard 1) at (6, 6) and node 1 (shard 0)
// at (9, 9) answer demand (4, 4): k = 2 is [0, 4], cut at node 4's
// score; k = 4 is [0, 4, 1], one short, so its cut is +Inf. After the
// write the next ask is a hit exactly when the entry still holds, it
// and its repeat (a hit) answer what a NoCache query and the referee
// do, and the ask counts as revalidated or as stale.
func TestCacheRecheck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k      int
		write  func(e *Engine, nodes []GlobalID) error
		cached bool
	}{
		{"a node entering no answer", 2, func(e *Engine, n []GlobalID) error {
			return e.Update(n[2], vector.Of(1, 9), false)
		}, true},
		{"a match that ties the last candidate and loses on id", 2, func(e *Engine, n []GlobalID) error {
			return e.Update(n[5], vector.Of(6, 6), false)
		}, true},
		{"a match scoring past the cut", 2, func(e *Engine, n []GlobalID) error {
			return e.Update(n[6], vector.Of(7, 7), false)
		}, true},
		{"a cached candidate's row changed, still qualifying under the cut", 2, func(e *Engine, n []GlobalID) error {
			return e.Update(n[0], vector.Of(5, 5.25), false)
		}, false},
		{"an update ranking ahead of the last candidate", 2, func(e *Engine, n []GlobalID) error {
			return e.Update(n[5], vector.Of(5.5, 5.5), false)
		}, false},
		{"a join ranking ahead of the last candidate", 2, func(e *Engine, n []GlobalID) error {
			_, err := e.JoinOn(1, vector.Of(4.5, 4.5))
			return err
		}, false},
		{"a match that ties the last candidate and wins on id", 2, func(e *Engine, n []GlobalID) error {
			return e.Update(n[2], vector.Of(6, 6), false)
		}, false},
		{"a cached candidate leaving", 2, func(e *Engine, n []GlobalID) error {
			return e.Leave(n[4])
		}, false},
		{"a cached candidate migrating to another shard", 2, func(e *Engine, n []GlobalID) error {
			return e.Migrate(n[0], 1)
		}, false},
		{"two shards moved, the first harmlessly", 2, func(e *Engine, n []GlobalID) error {
			if err := e.Update(n[2], vector.Of(1, 1), false); err != nil {
				return err
			}
			return e.Update(n[5], vector.Of(5.5, 5.5), false)
		}, false},
		{"two shards moved, the last harmlessly", 2, func(e *Engine, n []GlobalID) error {
			if err := e.Update(n[2], vector.Of(5.5, 5.5), false); err != nil {
				return err
			}
			return e.Update(n[5], vector.Of(1, 1), false)
		}, false},
		{"a short entry, a node entering no answer", 4, func(e *Engine, n []GlobalID) error {
			return e.Update(n[6], vector.Of(9, 1), false)
		}, true},
		{"a short entry, a new match however poor", 4, func(e *Engine, n []GlobalID) error {
			return e.Update(n[6], vector.Of(9.5, 9.5), false)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(2)
			e, _ := newClockedEngine(t, cfg)
			nodes := e.Nodes()
			for _, w := range []struct {
				node  int
				avail vector.Vec
			}{{0, vector.Of(5, 5)}, {4, vector.Of(6, 6)}, {1, vector.Of(9, 9)}} {
				if err := e.Update(nodes[w.node], w.avail, false); err != nil {
					t.Fatal(err)
				}
			}
			q := QueryRequest{Demand: vector.Of(4, 4), K: tc.k}
			if resp := mustQuery(t, e, q); resp.Cached || len(resp.Candidates) != min(tc.k, 3) {
				t.Fatalf("the fill: cached=%v with %d candidates", resp.Cached, len(resp.Candidates))
			}
			if err := tc.write(e, nodes); err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			for i, cached := range []bool{tc.cached, true} {
				got := mustQuery(t, e, q)
				want := mustQuery(t, e, QueryRequest{Demand: q.Demand, K: q.K, NoCache: true}).Candidates
				if got.Cached != cached || !sameCandidates(got.Candidates, want) {
					t.Fatalf("ask %d: cached=%v %+v, want cached=%v and the uncached answer %+v", i, got.Cached, got.Candidates, cached, want)
				}
				if ref := e.Referee(q.Demand, q.K); !sameCandidates(want, ref) {
					t.Fatalf("ask %d: uncached %+v, referee %+v", i, want, ref)
				}
			}
			st := e.Stats()
			revalidated, stale := st.CacheRevalidated-before.CacheRevalidated, st.CacheStale-before.CacheStale
			if tc.cached && (revalidated != 1 || stale != 0) || !tc.cached && (revalidated != 0 || stale != 1) {
				t.Fatalf("%d revalidated, %d stale; want the first ask counted as %s", revalidated, stale,
					map[bool]string{true: "revalidated", false: "stale"}[tc.cached])
			}
		})
	}
}

// TestBestFitMatchesSort: bestFit's k best by insertion are the first k
// of the whole set sorted by rank, on candidates whose surpluses are
// drawn from three values, so that most comparisons are ties broken by
// id, for every k up to past the set's size and past insertMax.
func TestBestFitMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		n := rng.Intn(3 * insertMax)
		cands := make([]Candidate, n)
		for i, id := range rng.Perm(n) {
			cands[i] = Candidate{Node: GlobalID(id), Surplus: float64(rng.Intn(3)) / 2}
		}
		want := slices.Clone(cands)
		slices.SortFunc(want, rank)
		k := rng.Intn(n + 3)
		if k > 0 && k < n {
			want = want[:k]
		}
		if got := bestFit(slices.Clone(cands), k); !sameCandidates(got, want) {
			t.Fatalf("k=%d of %d: bestFit %+v, want %+v", k, n, got, want)
		}
	}
}

// TestReadCountersAreExact: the striped read counters lose no add.
// GOMAXPROCS goroutines ask cached, NoCache and consistent queries at
// once, under a few writes; then Queries counts every query,
// CacheHits+CacheMisses every cached one and IndexSearches every NoCache
// query and every miss (a fill is one search, a recheck none). Queries
// survives a checkpoint and a reopen; the cache and index counts start
// again from 0.
func TestReadCountersAreExact(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	e := newDurableEngine(t, cfg, dir)
	nodes := e.Nodes()
	callers, per := runtime.GOMAXPROCS(0), 300
	run := func(e *Engine) {
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range per {
					req := QueryRequest{Demand: vector.Of(float64(i%7), 1), K: 1 + i%3}
					switch i % 3 {
					case 1:
						req.NoCache = true
					case 2:
						req.Consistent = true
					}
					if _, err := e.Query(req); err != nil {
						t.Error(err)
					}
					if c == 0 && i%50 == 0 {
						if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i%10), 5), false); err != nil {
							t.Error(err)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	check := func(e *Engine, queries, cached, noCache uint64, when string) {
		t.Helper()
		st := e.Stats()
		if st.Queries != queries || st.CacheHits+st.CacheMisses != cached || st.IndexSearches != noCache+st.CacheMisses {
			t.Fatalf("%s: %d queries, %d+%d cache lookups, %d searches; want %d, %d and %d+%d",
				when, st.Queries, st.CacheHits, st.CacheMisses, st.IndexSearches, queries, cached, noCache, st.CacheMisses)
		}
	}
	all, third := uint64(callers*per), uint64(callers*per/3)
	run(e)
	check(e, all, third, third, "after a run")
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(e, all, third, third, "after a checkpoint")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := newDurableEngine(t, cfg, dir)
	check(re, all, 0, 0, "after a reopen")
	run(re)
	check(re, 2*all, third, third, "after a second run")
}

// TestCacheBytesPerEntry is the memory budget of a cache entry at the
// repo benchmark's wire_cached_1k shape: 4 x 250 nodes in [0.2, 1]·cmax,
// 2 048 demand profiles in [0, 0.6]·cmax, k = 3 — what one more cached
// answer holds live, the table aside. Measured: 356 B (340 B before an
// entry carried its cut, which took its header from 80 to 96 B).
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
	n := e.cache.entries()
	const table = cacheSize * 8 // the slots, one pointer each, which the first fill allocates
	per := float64(after.HeapAlloc-before.HeapAlloc-table) / float64(n)
	t.Logf("%d entries, %.0f B each", n, per)
	if per > 360 {
		t.Fatalf("a cache entry holds %.0f B, budget 360", per)
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

// Op codes of FuzzCachedMatchesUncached's scripts: one code byte, then
// the op's argument bytes (missing ones read as 0).
const (
	fzUpdate  = iota // node, avail[0], avail[1]
	fzJoin           // shard, avail[0], avail[1]
	fzLeave          // node
	fzMigrate        // node, destination shard
	fzTick           // idle tick after 10 s times the byte mod 4 (0: a republication with nothing dirty)
	fzQuery          // profile
	fzOps
)

// fzProfiles are the demands a fuzz script asks, by index; the last one
// is found at run time to share profile 0's slot.
var fzProfiles = []QueryRequest{
	{Demand: vector.Of(4, 4), K: 2},
	{Demand: vector.Of(4.25, 4), K: 2},
	{Demand: vector.Of(4, 4), K: 1},
	{Demand: vector.Of(0.25, 0.25), K: 1},
	{Demand: vector.Of(3.25, 3.5), K: 3},
	{Demand: vector.Of(1, 6), K: 4},
}

// fzCollider returns a key other than p's, on the quarter-unit grid the
// scripts write availabilities on, that maps to p's slot.
func fzCollider(p QueryRequest) QueryRequest {
	slot := slotOf(p.Demand, p.K)
	for k := 1; k <= 4; k++ {
		for a := range 41 {
			for b := range 41 {
				q := QueryRequest{Demand: vector.Of(float64(a)/4, float64(b)/4), K: k}
				if slotOf(q.Demand, q.K) == slot && (k != p.K || !q.Demand.Equal(p.Demand)) {
					return q
				}
			}
		}
	}
	panic("no colliding key on the grid")
}

// fzScript builds a FuzzCachedMatchesUncached script. Nodes are picked
// by position in Engine.Nodes (ascending global id: with nothing
// migrated, shard 0's six nodes first), availabilities in quarter units
// of the 10 x 10 capacity.
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
func (s fzScript) query(profiles ...int) fzScript {
	for _, p := range profiles {
		s = append(s, fzQuery, byte(p))
	}
	return s
}

// FuzzCachedMatchesUncached is the exactness property of the query
// cache: on two hand-clocked shards under random updates, joins,
// leaves, migrations and idle ticks, every cached query's answer — hit
// or fill — is the answer a NoCache query gives, and the referee's over
// the engine's records: candidate for candidate and bit for bit, ties
// included. And the cache does answer: a key asked again with no write
// and no colliding fill in between is a hit.
func FuzzCachedMatchesUncached(f *testing.F) {
	var base fzScript
	base = base.update(0, 5, 5).update(6, 6, 6)
	// A change at exactly the k-th surplus: node 2 ties the k-th
	// candidate (6/0) and wins on id; node 9 ties it and loses.
	f.Add([]byte(base.query(0, 0, 1).update(9, 6, 6).query(0, 0).update(2, 6, 6).query(0, 1, 0)))
	// Fewer than k candidates: any node dominating the demand changes
	// the answer, however poor its fit; then a candidate leaves.
	f.Add([]byte(base.query(5, 5).update(3, 10, 10).query(5).update(4, 2, 9).query(5, 5).leave(0).query(5, 2)))
	// Writes to the last shard only: node 6 on, then off, the answer.
	f.Add([]byte(base.query(0, 2).update(6, 3, 3).query(0, 2).update(6, 9, 9).query(0, 2, 0).leave(6).query(2, 0)))
	// Idle ticks: republications with nothing dirty keep the entry,
	// whether or not they move the clock, so the repeats hit.
	f.Add([]byte(base.query(0, 4).tick(0).query(0, 4).tick(3).update(7, 8, 8).
		query(0).tick(2).query(0, 4).tick(0).query(4, 0)))
	// Migrations and joins under cached queries.
	f.Add([]byte(base.query(0).migrate(0, 1).query(0).join(0, 4.5, 4.5).
		query(0, 0).migrate(6, 0).query(0).leave(1).query(0, 0)))
	// Two keys in one slot: each fill evicts the other, across writes.
	f.Add([]byte(base.query(0, 6, 0, 6, 6, 0).update(1, 9, 9).query(6, 0, 0).update(7, 9.5, 9.5).query(0, 6, 6)))
	// A surplus tie the scores round apart: (0.75, 1) scores one ulp
	// above (0.5, 1.25) yet ties it on surplus at (0.25, 0.25) and wins
	// on id.
	f.Add([]byte(base.update(2, 0.75, 1).update(3, 0.5, 1.25).query(3, 3).
		update(2, 0, 0).query(3, 3).update(2, 0.75, 1).query(3, 3)))
	// A long run of one-node publications on shard 0 outside the
	// answer, after a node entered it.
	long := base.query(0, 0).update(1, 4.5, 4.5)
	for range 140 {
		long = long.update(5, 1, 1)
	}
	f.Add([]byte(long.query(0, 0)))
	// Publications alternating between the shards, asked between.
	both := base.query(0, 4)
	for i := range 40 {
		both = both.update(5, 1, 1).update(11, float64(i%8), 9).query(4, 0)
	}
	f.Add([]byte(both.query(0, 4)))
	// The one record answering k = 1 leaves, then comes back.
	f.Add([]byte(base.query(2, 2).leave(0).query(2, 0, 2).join(0, 5, 5).query(2, 2)))

	f.Fuzz(func(t *testing.T, script []byte) {
		cfg := testConfig(2)
		cfg.NodesPerShard = 6
		e, clk := newClockedEngine(t, cfg)
		profiles := append(slices.Clip(fzProfiles), fzCollider(fzProfiles[0]))
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
		// fresh maps a slot to the profile whose answer it holds, as
		// filled or hit with no write since.
		fresh := map[int]int{}
		for i := 0; i < len(script); {
			switch code := script[i] % fzOps; code {
			case fzUpdate:
				if id, ok := pick(arg(i + 1)); ok {
					e.Update(id, avail(i+2), false)
				}
				clear(fresh)
				i += 4
			case fzJoin:
				e.JoinOn(int(arg(i+1))%cfg.Shards, avail(i+2))
				clear(fresh)
				i += 4
			case fzLeave:
				if id, ok := pick(arg(i + 1)); ok {
					e.Leave(id)
				}
				clear(fresh)
				i += 2
			case fzMigrate:
				if id, ok := pick(arg(i + 1)); ok {
					e.Migrate(id, int(arg(i+2))%cfg.Shards) // a shard's last node stays: ErrLastNode
				}
				clear(fresh)
				i += 3
			case fzTick:
				clk.advance(time.Duration(arg(i+1)%4) * 10 * time.Second)
				i += 2
			case fzQuery:
				p := int(arg(i+1)) % len(profiles)
				req := profiles[p]
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
				slot := slotOf(req.Demand, req.K)
				if q, ok := fresh[slot]; ok && q == p && !got.Cached {
					t.Fatalf("op at byte %d: %+v asked again with no write since, a miss", i, req)
				}
				fresh[slot] = p
				i += 2
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
// Zipf(1.1), k = 3, and one update in fifty operations — each of which
// moves one shard's index, so the next ask of every cached key rechecks
// that shard. It reports the hit rate and the entries a search scans. Its NoCache side runs the same operations with every
// query uncached: the cache's gain on this workload is the ratio of
// the two.
func BenchmarkCachedQueryZipf(b *testing.B) {
	b.Run("cached", func(b *testing.B) { benchQueryZipf(b, false) })
	b.Run("NoCache", func(b *testing.B) { benchQueryZipf(b, true) })
}

func benchQueryZipf(b *testing.B, noCache bool) {
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
	for range 100_000 { // warm: the cache's slots at steady state
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
	b.ReportMetric(float64(st.IndexScannedRecords-before.IndexScannedRecords)/float64(st.IndexSearches-before.IndexSearches), "scanned/search")
}
