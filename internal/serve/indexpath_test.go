package serve

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pidcan/internal/vector"
)

// TestIndexedQueryMatchesLinear is the engine-level half of the
// index-vs-linear property: through churn batches that exercise the
// incremental index rebuild, every NoCache query — and every cached
// one — must answer byte-identically to the referee, a linear pass of
// proto.BestFit over the engine's own records.
func TestIndexedQueryMatchesLinear(t *testing.T) {
	cfg := testConfig(2)
	cfg.NodesPerShard = 25
	cfg.CMax = vector.Of(8, 12, 5)
	idx := newTestEngine(t, cfg)

	rng := rand.New(rand.NewSource(42))
	randAvail := func() vector.Vec {
		a := vector.New(cfg.CMax.Dim())
		for d := range a {
			a[d] = cfg.CMax[d] * rng.Float64()
			if rng.Intn(10) == 0 {
				a[d] = 0
			}
		}
		return a
	}

	compare := func(round int) {
		t.Helper()
		for q := 0; q < 40; q++ {
			demand := vector.New(cfg.CMax.Dim())
			for d := range demand {
				demand[d] = cfg.CMax[d] * rng.Float64() * 0.8
			}
			k := 1 + rng.Intn(6)
			want := idx.Referee(demand, k)
			for _, noCache := range []bool{true, false} {
				got := mustQuery(t, idx, QueryRequest{Demand: demand, K: k, NoCache: noCache})
				if !sameCandidates(got.Candidates, want) {
					t.Fatalf("round %d q %d: NoCache=%v answered (cached=%v)\n%+v\nthe referee\n%+v",
						round, q, noCache, got.Cached, got.Candidates, want)
				}
			}
		}
	}

	// Interleave churn rounds (updates, joins, leaves — the deltas the
	// incremental rebuild merges) with full response comparisons.
	for round := 0; round < 8; round++ {
		ni := idx.Nodes()
		for op := 0; op < 30; op++ {
			switch {
			case len(ni) > 4 && rng.Intn(6) == 0: // leave
				p := rng.Intn(len(ni))
				if err := idx.Leave(ni[p]); err != nil {
					t.Fatal(err)
				}
				ni = append(ni[:p], ni[p+1:]...)
			case rng.Intn(6) == 0: // join
				g, err := idx.Join(randAvail())
				if err != nil {
					t.Fatal(err)
				}
				ni = append(ni, g)
			default: // re-advertise
				if err := idx.Update(ni[rng.Intn(len(ni))], randAvail(), false); err != nil {
					t.Fatal(err)
				}
			}
		}
		compare(round)
	}

	st := idx.Stats()
	if st.IndexSearches == 0 || st.IndexBuilds == 0 {
		t.Fatalf("indexed engine reported no index activity: %+v", st)
	}
	if st.IndexDeltaBuilds == 0 {
		t.Fatalf("churn rounds never took the incremental rebuild path: %+v", st)
	}
}

// TestMergedScanMatchesLinear pins the merged scan — one cursor per
// shard under one shared cutoff — against the referee (a linear pass
// over the engine's own records) where a shared cutoff could go wrong:
// four shards of several blocks each, availabilities on a coarse grid
// so that records of different shards tie exactly at the k-th
// position, and k of 1, 3 and more than there are matches. Responses must be byte-identical; the merged scan
// may visit no more than the four per-shard searches it replaced would
// together; and it must hand ranking about the k candidates asked for,
// not k per shard.
func TestMergedScanMatchesLinear(t *testing.T) {
	cfg := testConfig(4)
	cfg.NodesPerShard = 320
	cfg.CMax = vector.Of(8, 12, 5)
	idx, clock := newClockedEngine(t, cfg)

	rng := rand.New(rand.NewSource(21))
	// A third of all vectors lie on a grid of 16 steps per dimension:
	// distinct grid vectors have one of 49 scores, so grid records tie
	// in score (to rounding) all the time, in and across shards, and
	// the ranking between them is the exact surplus's and the node
	// id's to decide. The rest keep the tie groups small.
	draw := func(scale float64) vector.Vec {
		v := vector.New(cfg.CMax.Dim())
		grid := rng.Intn(3) == 0
		for d := range v {
			if v[d] = cfg.CMax[d] * scale * rng.Float64(); grid {
				v[d] = cfg.CMax[d] * scale * float64(rng.Intn(17)) / 16
			}
		}
		return v
	}
	nodes := idx.Nodes()
	var candidates, asked, tiedAcrossShards int
	for round := range 6 {
		// Re-advertise everything in round 0 and a third of the nodes
		// afterwards, 20 s apart.
		for _, n := range nodes {
			if round > 0 && rng.Intn(3) > 0 {
				continue
			}
			if err := idx.Update(n, draw(1), false); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(20 * time.Second)

		for range 60 {
			demand := draw(0.75)
			matches := idx.Referee(demand, len(nodes))
			for _, k := range []int{1, 3, len(nodes)} {
				before := idx.Stats()
				got := mustQuery(t, idx, QueryRequest{Demand: demand, K: k, NoCache: true})
				after := idx.Stats()
				if want := idx.Referee(demand, k); !sameCandidates(got.Candidates, want) {
					t.Fatalf("round %d demand %v k %d: merged scan answered\n%+v\nthe referee\n%+v", round, demand, k, got.Candidates, want)
				}
				perShard := 0
				for i := range cfg.Shards {
					snap, err := idx.Snapshot(i)
					if err != nil {
						t.Fatal(err)
					}
					_, n := snap.Search(nil, demand, cfg.CMax, k)
					perShard += n
				}
				if merged := int(after.IndexScannedRecords - before.IndexScannedRecords); merged > perShard {
					t.Fatalf("round %d demand %v k %d: merged scan visited %d entries, the four per-shard searches %d", round, demand, k, merged, perShard)
				}
				if k < len(matches) {
					candidates += int(after.IndexCandidates - before.IndexCandidates)
					asked += k
					if a, b := matches[k-1], matches[k]; a.Surplus == b.Surplus && a.Node.Shard() != b.Node.Shard() {
						tiedAcrossShards++
					}
				}
			}
		}
	}
	t.Logf("%d candidates merged for %d asked; %d queries tied across shards at the k-th position", candidates, asked, tiedAcrossShards)
	if tiedAcrossShards == 0 {
		t.Fatal("the run exercised no cross-shard tie at the k-th position")
	}
	if candidates > 2*asked {
		t.Fatalf("merged scans handed ranking %d candidates for %d asked, more than twice over", candidates, asked)
	}
}

// driftQuantum is the demand-drift scenario's fine quantization grid.
const driftQuantum = 0.002

// driftEngine builds the demand-drift scenario's engine: a fine grid
// against a slowly wandering demand distribution, so nearly every
// lookup lands in a virgin cell and a fixed grid can't amortize
// anything. adaptEvery > 0 lets the controller coarsen the grid up to
// 0.1.
func driftEngine(t *testing.T, adaptEvery int) *Engine {
	cfg := testConfig(1)
	cfg.NodesPerShard = 32
	return newCacheTestEngine(t, cfg, driftQuantum, 0.1, cacheSize, adaptEvery)
}

// driftHitRate drives n random-walk demands through the engine and
// returns the cache hit-rate.
func driftHitRate(t *testing.T, e *Engine, n int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	cmax := e.Config().CMax
	for i := 0; i < n; i++ {
		demand := vector.New(2)
		for d := range demand {
			// The distribution's center drifts across half the
			// capacity range over the run — hundreds of fine grid
			// cells — while per-query jitter spreads each batch of
			// demands over a ~40x40 cell neighborhood. Far more
			// virgin cells than repeat visits for a fixed fine grid;
			// a handful of live cells once the grid coarsens.
			base := (0.15 + 0.5*float64(i)/float64(n)) * cmax[d]
			demand[d] = base + 0.08*cmax[d]*rng.Float64()
		}
		if _, err := e.Query(QueryRequest{Demand: demand, K: 3}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		t.Fatal("no cache lookups recorded")
	}
	return float64(st.CacheHits) / float64(total)
}

// TestAdaptiveCacheRecoversFromDrift: under drifting demands the
// fixed-knob cache misses almost always, while the adaptive
// controller detects the compulsory-miss pattern, coarsens the grid,
// and recovers a useful hit-rate from the very same workload.
func TestAdaptiveCacheRecoversFromDrift(t *testing.T) {
	fixed := driftEngine(t, 0)
	adaptive := driftEngine(t, 64)

	const n = 3000
	fixedRate := driftHitRate(t, fixed, n)
	adaptiveRate := driftHitRate(t, adaptive, n)
	t.Logf("hit-rate under drift: fixed %.3f, adaptive %.3f", fixedRate, adaptiveRate)

	if fixedRate > 0.25 {
		t.Fatalf("fixed-knob cache hit-rate %.3f — drift scenario not hostile enough", fixedRate)
	}
	if adaptiveRate < 0.35 {
		t.Fatalf("adaptive cache hit-rate %.3f, want >= 0.35 (fixed: %.3f)", adaptiveRate, fixedRate)
	}
	if adaptiveRate < 3*fixedRate {
		t.Fatalf("adaptive hit-rate %.3f not >= 3x fixed %.3f", adaptiveRate, fixedRate)
	}

	st := adaptive.Stats()
	if st.CacheAdaptions == 0 {
		t.Fatalf("controller never adapted: %+v", st)
	}
	if st.CacheQuantum <= driftQuantum {
		t.Fatalf("quantum %v never coarsened past %v", st.CacheQuantum, driftQuantum)
	}
	if fs := fixed.Stats(); fs.CacheAdaptions != 0 {
		t.Fatalf("fixed-knob engine adapted %d times", fs.CacheAdaptions)
	}
}

// TestCacheRotationKeepsHotHalf: filling past capacity must rotate
// generations (shedding the coldest half) rather than wiping the
// whole cache — a hot key stays served across the rotation.
func TestCacheRotationKeepsHotHalf(t *testing.T) {
	const size = 8 // each generation holds 4
	e := newCacheTestEngine(t, testConfig(1), 0.01, 0.01, size, 0)

	hot := QueryRequest{Demand: vector.Of(1, 1), K: 2}
	if _, err := e.Query(hot); err != nil { // fill the hot cell
		t.Fatal(err)
	}
	// Walk enough distinct cells to force several rotations, touching
	// the hot key between fills so promotion keeps it live.
	for i := 0; i < 40; i++ {
		d := vector.Of(2+float64(i)*0.15, 3)
		if _, err := e.Query(QueryRequest{Demand: d, K: 2}); err != nil {
			t.Fatal(err)
		}
		resp, err := e.Query(hot)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Cached {
			t.Fatalf("hot key evicted after %d cold fills (stats %+v)", i+1, e.Stats())
		}
	}
	st := e.Stats()
	if st.CacheResets == 0 {
		t.Fatalf("no generation rotation happened: %+v", st)
	}
	if st.CacheEntries > size {
		t.Fatalf("cache grew past its bound: %d > %d", st.CacheEntries, size)
	}
}

// seededEngine builds an engine of fake backends whose nodes already
// advertise avail() when the first snapshot is published, so a large
// population costs one index build per shard, not a write per node.
func seededEngine(tb testing.TB, cfg Config, avail func() vector.Vec) *Engine {
	tb.Helper()
	e, err := New(cfg, func(i int, rc Config) (Backend, error) {
		f := newFake(rc.NodesPerShard, rc.CMax.Dim())
		for id := range f.next {
			f.avail[id] = avail()
		}
		return f, nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	return e
}

// BenchmarkEngineSearch is the uncached read path at the repo
// benchmark's read_uncached_100k shape: 4 shards x 25 000 records,
// availabilities in [0.2, 1]·cmax, demands in [0, 0.6]·cmax, k = 3.
func BenchmarkEngineSearch(b *testing.B) {
	cfg := testConfig(4)
	cfg.NodesPerShard = 25000
	cfg.CMax = vector.Of(25.6, 80, 10, 240, 4096)
	rng := rand.New(rand.NewSource(5))
	draw := func(lo, hi float64) vector.Vec {
		v := vector.New(cfg.CMax.Dim())
		for d := range v {
			v[d] = cfg.CMax[d] * (lo + (hi-lo)*rng.Float64())
		}
		return v
	}
	e := seededEngine(b, cfg, func() vector.Vec { return draw(0.2, 1) })
	demands := make([]vector.Vec, 1024)
	for i := range demands {
		demands[i] = draw(0, 0.6)
	}
	before := e.Stats()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := e.Query(QueryRequest{Demand: demands[i%len(demands)], K: 3, NoCache: true}); err != nil {
			b.Fatal(err)
		}
		i++
	}
	st := e.Stats()
	searches := float64(st.IndexSearches - before.IndexSearches)
	b.ReportMetric(float64(st.IndexScannedRecords-before.IndexScannedRecords)/searches, "scanned/op")
	b.ReportMetric(float64(st.IndexCandidates-before.IndexCandidates)/searches, "candidates/op")
}

// BenchmarkEngineUpdate is the in-process write path: concurrent
// Engine.Update calls (GOMAXPROCS writers — run it with -cpu 2 for
// two) against 4 shards x 2 500 records, random nodes, availabilities
// in [0.2, 1]·cmax. Each write is applied, published and acked before
// it returns; ops/batch is how many writes a batch carried, queued/op
// the share that found the combiner lock taken and parked/op the share
// whose caller slept before its result came.
func BenchmarkEngineUpdate(b *testing.B) {
	cfg, e, draw := mixedEngine(b)
	nodes := e.Nodes()
	before := writeCountsOf(e)
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		a := vector.New(cfg.CMax.Dim())
		for pb.Next() {
			draw(rng, a, 0.2, 1)
			if err := e.Update(nodes[rng.Intn(len(nodes))], a, false); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	writeCountsOf(e).report(b, before, b.N)
}

// BenchmarkEngineMixed is mixed_write_10k's shape in process: GOMAXPROCS
// closed-loop callers (run it with -cpu 2, the repo benchmark's two)
// against 4 shards x 2 500 records, each op a NoCache query (70%:
// demand in [0, 0.6]·cmax, k = 3) or an update of a random node (30%:
// availability in [0.2, 1]·cmax). queued/op and parked/op are per
// update, as in BenchmarkEngineUpdate.
func BenchmarkEngineMixed(b *testing.B) {
	cfg, e, draw := mixedEngine(b)
	nodes := e.Nodes()
	before := writeCountsOf(e)
	var seed atomic.Int64
	var updates atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		v := vector.New(cfg.CMax.Dim())
		n := int64(0)
		for pb.Next() {
			if rng.Intn(10) < 3 {
				n++
				draw(rng, v, 0.2, 1)
				if err := e.Update(nodes[rng.Intn(len(nodes))], v, false); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			draw(rng, v, 0, 0.6)
			if _, err := e.Query(QueryRequest{Demand: v, K: 3, NoCache: true}); err != nil {
				b.Error(err)
				return
			}
		}
		updates.Add(n)
	})
	b.StopTimer()
	writeCountsOf(e).report(b, before, int(updates.Load()))
}

// mixedEngine is the engine of BenchmarkEngineUpdate and
// BenchmarkEngineMixed — 4 shards x 2 500 records, availabilities in
// [0.2, 1]·cmax — and draw, which fills v with cmax·[lo, hi) draws.
func mixedEngine(b *testing.B) (Config, *Engine, func(rng *rand.Rand, v vector.Vec, lo, hi float64)) {
	cfg := testConfig(4)
	cfg.NodesPerShard = 2500
	cfg.CMax = vector.Of(25.6, 80, 10, 240, 4096)
	draw := func(rng *rand.Rand, v vector.Vec, lo, hi float64) {
		for d := range v {
			v[d] = cfg.CMax[d] * (lo + (hi-lo)*rng.Float64())
		}
	}
	rng := rand.New(rand.NewSource(5))
	e := seededEngine(b, cfg, func() vector.Vec {
		v := vector.New(cfg.CMax.Dim())
		draw(rng, v, 0.2, 1)
		return v
	})
	return cfg, e, draw
}

// writeCounts sums the shards' write-path counters.
type writeCounts struct{ batches, queued, parked uint64 }

func writeCountsOf(e *Engine) (c writeCounts) {
	for _, sh := range e.Stats().Shards {
		c.batches += sh.Batches
		c.queued += sh.WritesQueued
		c.parked += sh.WritesParked
	}
	return c
}

// report reports ops/batch, queued/op and parked/op over the writes
// since before, if there were any.
func (c writeCounts) report(b *testing.B, before writeCounts, writes int) {
	if writes == 0 {
		return
	}
	b.ReportMetric(float64(writes)/float64(c.batches-before.batches), "ops/batch")
	b.ReportMetric(float64(c.queued-before.queued)/float64(writes), "queued/op")
	b.ReportMetric(float64(c.parked-before.parked)/float64(writes), "parked/op")
}
