package serve

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// queryCache memoizes query answers keyed by the quantized demand
// vector and k, and serves an answer only while it is the current
// snapshots' answer. An entry remembers, per shard, a snapshot Version
// its answer holds at; a lookup walks each shard's change history (the
// sets publishDelta links, see Snapshot) from there to the current
// snapshot. The entry survives a change that is not one of its
// candidates and, if the changed node now dominates the cell, ranks it
// below the k-th candidate. A walk that reaches a cut history or would
// pass cacheWalkMax changes, and an entry whose earliest candidate has
// expired (RecordTTL), is a miss. A write is acknowledged only once its
// snapshot is live, so a caller's next cached query sees its own write.
//
// Entries live in two generations: puts fill the new generation, and
// when it reaches half the configured capacity it rotates into the
// old one (whose previous content is dropped). A full cache therefore
// sheds its coldest half instead of wiping every hot entry at once,
// and an old-generation hit promotes its entry back into the new
// generation.
//
// With Config.CacheAdaptEvery set, the quantization grid stops being
// fixed: every adaptEvery lookups the controller reads the window's
// hit-rate. A window of compulsory misses (demand drift marching across
// grid cells, not invalidations) coarsens the grid so moving demands
// alias onto live cells; a comfortable window refines it back toward
// the configured quantum.
type queryCache struct {
	half int // entries each generation holds: CacheSize/2, at least 1
	cmax vector.Vec
	grid atomic.Pointer[cacheGrid] // CacheQuantum's unless the controller steers it

	// Adaptive-controller configuration (constants after build).
	adaptEvery uint64
	qMin, qMax float64

	mu     sync.RWMutex
	newGen map[string]*cacheEntry
	oldGen map[string]*cacheEntry

	hits      atomic.Uint64
	misses    atomic.Uint64
	rotations atomic.Uint64 // generation rotations (cache_resets)
	stale     atomic.Uint64 // entries a lookup found invalidated
	adaptions atomic.Uint64 // controller re-grids

	// Per-window accounting for the adaptive controller.
	winLookups atomic.Uint64
	winHits    atomic.Uint64
	winStale   atomic.Uint64
}

// cacheGrid is one immutable quantization grid: the quantum (as a
// fraction of cmax) and the per-dimension inverse cell widths.
// Swapped atomically when the controller re-grids.
type cacheGrid struct {
	quantum float64
	inv     vector.Vec // 1/(quantum*cmax[k]), 0 for zero-capacity dims
}

func newGrid(quantum float64, cmax vector.Vec) *cacheGrid {
	inv := make(vector.Vec, cmax.Dim())
	for i, c := range cmax {
		if c > 0 {
			inv[i] = 1 / (quantum * c)
		}
	}
	return &cacheGrid{quantum: quantum, inv: inv}
}

// Adaptive-controller thresholds: a window below adaptHitLow whose
// misses are mostly compulsory (at most adaptStaleShare of its lookups
// invalidated) coarsens the grid; one above adaptHitHigh with almost
// no invalidation refines it.
const (
	adaptHitLow     = 0.70
	adaptHitHigh    = 0.97
	adaptStaleShare = 0.25
)

// cacheWalkMax bounds the changes one lookup examines over all shards:
// at tens of nanoseconds a change, a longer walk would cost more than
// the refill it saves (about five hits). changeRetain bounds the
// changed nodes a shard's history keeps, which no lookup could walk
// past anyway.
const (
	cacheWalkMax = 128
	changeRetain = cacheWalkMax
)

func newQueryCache(cfg Config) *queryCache {
	qc := &queryCache{
		half:   max(cfg.CacheSize/2, 1),
		cmax:   cfg.CMax,
		qMin:   cfg.CacheQuantum,
		qMax:   cfg.CacheQuantumMax,
		newGen: make(map[string]*cacheEntry),
		oldGen: make(map[string]*cacheEntry),

		adaptEvery: uint64(cfg.CacheAdaptEvery), // withDefaults clamps it to >= 0
	}
	qc.grid.Store(newGrid(cfg.CacheQuantum, cfg.CMax))
	return qc
}

// cacheEntry is one cached answer: the cell's top k, ranked on the
// cell's upper-bound demand, with their availabilities in one array of
// the entry's own, so a long-lived entry pins no superseded index block.
type cacheEntry struct {
	cands   []Candidate
	kth     float64         // the k-th candidate's surplus, when there are k
	expires sim.Time        // earliest candidate expiry
	seen    []atomic.Uint64 // per shard, a Version the answer holds at
}

// newCacheEntry returns an entry for searchShards to record a fill in.
func newCacheEntry(shards int) *cacheEntry {
	return &cacheEntry{expires: math.MaxInt64, seen: make([]atomic.Uint64, shards)}
}

// keep stores the ranked answer, cands, which the entry takes over.
func (ce *cacheEntry) keep(cands []Candidate, k int) {
	dims := 0
	if len(cands) > 0 {
		dims = len(cands[0].Avail)
	}
	vals := make([]float64, 0, len(cands)*dims)
	for i := range cands {
		vals = append(vals, cands[i].Avail...)
		cands[i].Avail = vals[len(vals)-dims : len(vals) : len(vals)]
	}
	if ce.cands = cands; len(cands) == k {
		ce.kth = cands[k-1].Surplus
	}
}

// holds reports whether the entry still answers cell on the shards'
// current snapshots. A walk that examined a change advances the
// entry's version of that shard, so the next lookup starts there.
func (ce *cacheEntry) holds(cell vector.Vec, k int, shards []*shard, scale vector.Vec) bool {
	walked := 0
	for i, s := range shards {
		snap := s.snapshot()
		seen := ce.seen[i].Load()
		if snap.Version <= seen {
			continue
		}
		if ce.expires <= snap.Taken {
			return false
		}
		c := snap.changes
		if c.version <= seen {
			continue // republished unchanged: no store, so a hot entry's line stays shared
		}
		for c.version > seen {
			if walked += len(c.nodes); walked > cacheWalkMax {
				return false
			}
			for _, ch := range c.nodes {
				if !ce.survives(Global(s.idx, ch.node), ch.avail, cell, k, scale) {
					return false
				}
			}
			if c = c.older.Load(); c == nil {
				return false // the history was cut
			}
		}
		ce.seen[i].Store(snap.Version)
	}
	return true
}

// survives reports whether the answer outlives one change: the node is
// not a candidate and, if its new availability dominates the cell,
// ranks below the k-th candidate. A surplus tie does not rank below:
// the node ids would decide it.
func (ce *cacheEntry) survives(node GlobalID, avail, cell vector.Vec, k int, scale vector.Vec) bool {
	for i := range ce.cands {
		if ce.cands[i].Node == node {
			return false
		}
	}
	return avail == nil || !avail.Dominates(cell) ||
		len(ce.cands) == k && avail.Surplus(cell, scale) > ce.kth
}

// quantize maps demand onto the cache grid: it returns the cache key
// for (demand, k) and the cell's upper-bound demand. Responses
// shared through the cache are computed against that upper bound, so
// every demand landing in the cell receives candidates that dominate
// it — conservative (a candidate may be skipped near a cell edge),
// never the reverse. The key names a cell of the grid quantize also
// returns, and only of that one: the same indices bound another demand
// on another grid, so get and put refuse a key once a re-grid has
// replaced it.
func (qc *queryCache) quantize(demand vector.Vec, k int) (string, vector.Vec, *cacheGrid) {
	g := qc.grid.Load()
	buf := make([]byte, 0, 8+8*len(demand))
	ub := make(vector.Vec, len(demand))
	for i, d := range demand {
		if g.inv[i] == 0 {
			// Zero-capacity dimension: no grid; exact-match bucket.
			ub[i] = d
			buf = strconv.AppendUint(buf, math.Float64bits(d), 36)
			buf = append(buf, '|')
			continue
		}
		cell := int64(math.Ceil(d * g.inv[i]))
		ub[i] = float64(cell) / g.inv[i]
		if ub[i] < d {
			// The division rounded below a demand whose product
			// rounded into the cell (cmax 16, quantum 0.1125: 1.8 ->
			// 1.7999999999999998). Such a demand keys the next cell:
			// the bound stays a function of the cell alone, so an
			// entry dominates every demand that can hit it whichever
			// of them filled it.
			cell++
			ub[i] = float64(cell) / g.inv[i]
		}
		buf = strconv.AppendInt(buf, cell, 36)
		buf = append(buf, '|')
	}
	buf = strconv.AppendInt(buf, int64(k), 36)
	return string(buf), ub, g
}

// get returns a private copy of the key's cached candidates if its
// entry still answers cell, of grid g, on the shards' current
// snapshots. A hit in the old generation is promoted back into the new
// one so rotation cannot drop a still-hot key; an invalidated entry is
// a miss, counted stale, which the caller's put replaces.
func (qc *queryCache) get(key string, g *cacheGrid, cell vector.Vec, k int, shards []*shard) ([]Candidate, bool) {
	qc.mu.RLock()
	ent, ok := qc.newGen[key]
	old := false
	if !ok {
		ent, ok = qc.oldGen[key]
		old = ok
	}
	if qc.grid.Load() != g { // re-gridded since the caller's quantize
		ok, old = false, false
	}
	qc.mu.RUnlock()
	if ok && !ent.holds(cell, k, shards, qc.cmax) {
		ok = false
		qc.stale.Add(1)
		qc.winStale.Add(1)
	} else if old {
		qc.mu.Lock()
		if cur, live := qc.oldGen[key]; live {
			qc.newGen[key] = cur
			delete(qc.oldGen, key)
		}
		qc.mu.Unlock()
	}
	if qc.adaptEvery > 0 {
		if ok {
			qc.winHits.Add(1)
		}
		if qc.winLookups.Add(1)%qc.adaptEvery == 0 {
			qc.adapt()
		}
	}
	if !ok {
		qc.misses.Add(1)
		return nil, false
	}
	qc.hits.Add(1)
	return append([]Candidate(nil), ent.cands...), true
}

// put stores a filled entry. When the new generation reaches half the
// configured capacity it rotates into the old generation (dropping the
// previous old one), so a full cache degrades gradually — the recently
// filled half survives — instead of losing every hot entry at once. A
// fill quantized on grid g is dropped once a re-grid has replaced g.
func (qc *queryCache) put(key string, g *cacheGrid, ent *cacheEntry) {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	if qc.grid.Load() != g {
		return
	}
	if len(qc.newGen) >= qc.half {
		qc.oldGen = qc.newGen
		qc.newGen = make(map[string]*cacheEntry, qc.half/4+1)
		qc.rotations.Add(1)
	}
	qc.newGen[key] = ent
}

// adapt is the controller step, run once per adaptEvery lookups by
// whichever reader crossed the window boundary.
func (qc *queryCache) adapt() {
	hitRate := float64(qc.winHits.Swap(0)) / float64(qc.adaptEvery)
	staleShare := float64(qc.winStale.Swap(0)) / float64(qc.adaptEvery)
	switch {
	case hitRate < adaptHitLow && staleShare <= adaptStaleShare:
		// Compulsory misses: the demand distribution moved off the
		// grid. Coarsen so drifting demands alias onto live cells.
		qc.regrid(math.Min(qc.grid.Load().quantum*1.5, qc.qMax))
	case hitRate > adaptHitHigh && staleShare < 0.05:
		// Comfortable: refine toward the configured precision.
		qc.regrid(math.Max(qc.grid.Load().quantum/1.25, qc.qMin))
	}
}

// regrid swaps the quantization grid and clears both generations under
// the lock get and put check the grid under: the maps only ever hold
// entries of the current grid.
func (qc *queryCache) regrid(quantum float64) {
	if quantum == qc.grid.Load().quantum {
		return
	}
	qc.mu.Lock()
	qc.grid.Store(newGrid(quantum, qc.cmax))
	qc.newGen = make(map[string]*cacheEntry)
	qc.oldGen = make(map[string]*cacheEntry)
	qc.mu.Unlock()
	qc.adaptions.Add(1)
}

// entries returns how many entries the two generations hold.
func (qc *queryCache) entries() int {
	qc.mu.RLock()
	defer qc.mu.RUnlock()
	return len(qc.newGen) + len(qc.oldGen)
}
