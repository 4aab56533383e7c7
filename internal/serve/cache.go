package serve

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pidcan/internal/serve/index"
	"pidcan/internal/vector"
)

// queryCache memoizes answers per (cell of a quantization grid over
// the demand space, k), exactly: best-fit order is score order (see
// package index), so every demand d of a cell [lo, ub] is answered from
// the records dominating lo (as d does) that score at most Cutoff of
// the k-th record dominating ub (which dominates d too). An entry holds
// that set (cacheEntry), and a lookup filters and ranks it at d.
//
// An entry remembers, per shard, a snapshot Version its set is exact
// at; a lookup walks each shard's change history (the sets publishDelta
// links, see Snapshot) from there and folds each change into a copy of
// the entry, which replaces it (holds). A walk that reaches a cut
// history or would pass cacheWalkMax changes and a copy left too small
// to answer from are misses. A write is acknowledged only once its snapshot is live, so a
// caller's next cached query sees its own write.
//
// Entries live in two generations: puts fill the new generation, and
// when it reaches half the configured capacity it rotates into the
// old one (whose previous content is dropped). A full cache therefore
// sheds its coldest half instead of wiping every hot entry at once,
// and an old-generation hit promotes its entry back into the new
// generation.
//
// With an adapt window (Config.CacheAdaptEvery), the quantization grid
// stops being fixed: every adaptEvery lookups the controller reads the
// window's hit-rate. A window of compulsory misses (demand drift
// marching across grid cells, not invalidations) coarsens the grid so
// moving demands alias onto live cells; a comfortable window refines it
// back toward the finest quantum. Coarser cells hold larger sets.
type queryCache struct {
	half  int // entries each generation holds: half the size, at least 1
	cmax  vector.Vec
	scale index.Scale               // what the indexes score by
	grid  atomic.Pointer[cacheGrid] // qMin's unless the controller steers it

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
// past anyway. cacheSetMax bounds the members of a cell with fewer
// than k records dominating its upper corner, whose entry holds every
// record dominating its lower one.
const (
	cacheWalkMax = 128
	changeRetain = cacheWalkMax
	cacheSetMax  = 64
)

// The engine's cache: a grid of cells cacheQuantum of cmax wide per
// dimension (20 levels), which the adaptive controller may coarsen up
// to cacheQuantumMax; at most cacheSize entries.
const (
	cacheQuantum    = 0.05
	cacheQuantumMax = 16 * cacheQuantum
	cacheSize       = 4096
)

// newQueryCache returns a cache over cmax whose grid starts at quantum
// and which the controller, every adaptEvery lookups (0: never), steers
// within [quantum, quantumMax]; it holds at most size entries.
func newQueryCache(cmax vector.Vec, quantum, quantumMax float64, size, adaptEvery int) *queryCache {
	qc := &queryCache{
		half:   max(size/2, 1),
		cmax:   cmax,
		scale:  index.NewScale(cmax),
		qMin:   quantum,
		qMax:   quantumMax,
		newGen: make(map[string]*cacheEntry),
		oldGen: make(map[string]*cacheEntry),

		adaptEvery: uint64(adaptEvery), // withDefaults clamps Config.CacheAdaptEvery to >= 0
	}
	qc.grid.Store(newGrid(quantum, cmax))
	return qc
}

// cacheEntry is the set a cell [lo, ub]'s answers are drawn from: the
// records that dominate lo and score at most Cutoff(kth), kth being
// the k-th smallest score among those dominating ub at the fill — or,
// with fewer than k of those, every record dominating lo (kth = +Inf, a
// full set). Members are kept in ascending score, so a lookup reads only
// as far as its answer's cutoff. The rows are the entry's own, so it pins no superseded index
// block; once shared, only seen is written.
type cacheEntry struct {
	ids    []GlobalID // the members' physical ids, ascending by score
	vals   []float64  // row-major: member i's availability
	idBits [4]uint64  // idBit of every member (and of some former ones): what a walk tests first
	kth    float64
	seen   []atomic.Uint64 // per shard, a Version the set is exact at
}

// newCacheEntry returns an entry for searchShards to fill.
func newCacheEntry(shards int) *cacheEntry {
	return &cacheEntry{seen: make([]atomic.Uint64, shards)}
}

// keep makes the fill's matches within Cutoff(kth) the entry's
// members, ascending by score: the scan reports a few past it, found
// before its bound shrank.
func (ce *cacheEntry) keep(matches []Candidate, kth float64, scale index.Scale) {
	type scored struct {
		score float64
		i     int
	}
	var buf [32]scored
	order, cut := buf[:0], index.Cutoff(kth)
	for i := range matches {
		if s := scale.Score(matches[i].Avail); s <= cut {
			order = append(order, scored{s, i})
		}
	}
	slices.SortFunc(order, func(a, b scored) int { return cmp.Compare(a.score, b.score) })
	ce.kth, ce.ids, ce.vals = kth, make([]GlobalID, 0, len(order)), nil
	for _, o := range order {
		if ce.vals == nil {
			ce.vals = make([]float64, 0, len(order)*len(matches[o.i].Avail))
		}
		ce.ids, ce.vals = append(ce.ids, matches[o.i].Node), append(ce.vals, matches[o.i].Avail...)
		ce.addID(matches[o.i].Node)
	}
}

// idBit hashes a node id to one of idBits' 256 bits: member's first
// test, one AND for nearly every change a walk passes over.
func idBit(id GlobalID) (word int, bit uint64) {
	h := uint64(id) * 0x9e3779b97f4a7c15 >> 56
	return int(h >> 6), 1 << (h & 63)
}

// addID sets id's bit in idBits (a member leaving keeps its bit).
func (ce *cacheEntry) addID(id GlobalID) {
	w, b := idBit(id)
	ce.idBits[w] |= b
}

// member reports whether id is one of the entry's members.
func (ce *cacheEntry) member(id GlobalID) bool {
	w, b := idBit(id)
	return ce.idBits[w]&b != 0 && slices.Contains(ce.ids, id)
}

// dominates is vector.Vec.Dominates for two vectors of one engine,
// without its dimension check: small enough to inline into the walk.
func dominates(v, w vector.Vec) bool {
	for d, x := range w {
		if v[d] < x {
			return false
		}
	}
	return true
}

// row returns member i's availability.
func (ce *cacheEntry) row(i, dims int) vector.Vec {
	return vector.Vec(ce.vals[i*dims : (i+1)*dims : (i+1)*dims])
}

// enough reports whether the entry still holds every record its cell's
// answers can draw on: k members that dominate ub and score at most
// kth — or, for a full set, whether it is small enough to cache.
func (ce *cacheEntry) enough(ub vector.Vec, k int, scale index.Scale) bool {
	if math.IsInf(ce.kth, 1) {
		return len(ce.ids) <= cacheSetMax
	}
	n := 0
	for i := range ce.ids {
		if avail := ce.row(i, len(ub)); dominates(avail, ub) && scale.Score(avail) <= ce.kth {
			n++
		}
	}
	return n >= k
}

// answer returns the answer at demand, a demand of the entry's cell:
// the members dominating it, ranked, the best k. Read in score order,
// the members stop mattering past Cutoff of the k-th one dominating
// demand, as in an index scan. The candidates' Avail are views of the
// entry's rows.
func (ce *cacheEntry) answer(demand, cmax vector.Vec, k int, scale index.Scale) []Candidate {
	out, cut := make([]Candidate, 0, k), math.Inf(1)
	for i, id := range ce.ids {
		avail := ce.row(i, len(demand))
		if len(out) >= k && scale.Score(avail) > cut {
			break
		}
		if dominates(avail, demand) {
			if out = append(out, Candidate{Node: id, Avail: avail, Surplus: avail.Surplus(demand, cmax)}); len(out) == k {
				cut = index.Cutoff(scale.Score(avail))
			}
		}
	}
	return bestFit(out, k)
}

// holds returns the entry as it answers the cell [lo, ub] on the
// shards' current snapshots: ce itself, its versions advanced, when no
// change since touches its set, else a copy with the changes folded in
// for the caller to cache in ce's place. ok is false when the walk
// cannot tell (a cut history, past cacheWalkMax) or the copy is not
// enough to answer from.
func (ce *cacheEntry) holds(lo, ub vector.Vec, k int, shards []*shard, scale index.Scale) (at *cacheEntry, ok bool) {
	var setBuf [cacheWalkMax]*changeSet
	at, walked := ce, 0
	for i, s := range shards {
		snap := s.snapshot()
		seen := at.seen[i].Load()
		if snap.Version <= seen {
			continue
		}
		if snap.changes.version <= seen {
			continue // republished unchanged: no store, so a hot entry's line stays shared
		}
		sets, touched := setBuf[:0], false
		for c := snap.changes; c.version > seen; {
			if walked += len(c.nodes); walked > cacheWalkMax {
				return nil, false
			}
			for _, ch := range c.nodes {
				touched = touched || at.member(Global(s.idx, ch.node)) || at.enters(ch, lo, scale)
			}
			if sets, c = append(sets, c), c.older.Load(); c == nil {
				return nil, false // the history was cut
			}
		}
		for j := len(sets) - 1; touched && j >= 0; j-- { // oldest first: a node's last change is what stands
			for _, ch := range sets[j].nodes {
				id := Global(s.idx, ch.node)
				if enters := at.enters(ch, lo, scale); enters || at.member(id) {
					at = ce.fold(at, id, ch, enters, len(lo), scale)
				}
			}
		}
		at.seen[i].Store(snap.Version)
	}
	return at, at == ce || at.enough(ub, k, scale)
}

// enters reports whether the record a change publishes belongs in the
// set: dominating lo, scoring within the cutoff.
func (ce *cacheEntry) enters(ch nodeChange, lo vector.Vec, scale index.Scale) bool {
	return ch.avail != nil && ch.score <= index.Cutoff(ce.kth) && dominates(ch.avail, lo)
}

// fold returns at with one change folded in: a changed member leaves,
// and a record that enters joins, in score order. The first change
// that touches the set copies ce, which at is until then.
func (ce *cacheEntry) fold(at *cacheEntry, id GlobalID, ch nodeChange, enters bool, dims int, scale index.Scale) *cacheEntry {
	i := slices.Index(at.ids, id)
	if i < 0 && !enters {
		return at
	}
	if at == ce {
		at = &cacheEntry{ids: append(make([]GlobalID, 0, len(ce.ids)+2), ce.ids...),
			vals: append(make([]float64, 0, len(ce.vals)+2*dims), ce.vals...), idBits: ce.idBits,
			kth: ce.kth, seen: make([]atomic.Uint64, len(ce.seen))}
		for s := range ce.seen {
			at.seen[s].Store(ce.seen[s].Load())
		}
	}
	if i >= 0 {
		at.ids, at.vals = slices.Delete(at.ids, i, i+1), slices.Delete(at.vals, i*dims, (i+1)*dims)
	}
	if enters {
		p := sort.Search(len(at.ids), func(j int) bool { return scale.Score(at.row(j, dims)) > ch.score })
		at.ids, at.vals = slices.Insert(at.ids, p, id), slices.Insert(at.vals, p*dims, ch.avail...)
		at.addID(id)
	}
	return at
}

// quantize maps demand onto the cache grid: it returns the cache key
// for (demand, k) and the corners lo <= demand <= ub of the cell it
// names, each a function of the key alone. The key names a cell of the
// grid quantize also returns, and only of that one: the same indices
// bound another demand on another grid, so get and put refuse a key
// once a re-grid has replaced it.
func (qc *queryCache) quantize(demand vector.Vec, k int) (key string, lo, ub vector.Vec, g *cacheGrid) {
	g = qc.grid.Load()
	var stack [64]byte // the key's bytes for up to five dimensions; only the string escapes
	buf := stack[:0]
	n := len(demand)
	corners := make(vector.Vec, 2*n)
	lo, ub = corners[:n:n], corners[n:]
	for i, d := range demand {
		if g.inv[i] == 0 {
			// Zero-capacity dimension: no grid; exact-match bucket.
			lo[i], ub[i] = d, d
			buf = strconv.AppendUint(buf, math.Float64bits(d), 36)
			buf = append(buf, '|')
			continue
		}
		// Cell c spans [(c-1)/inv, c/inv], its corners computed from c
		// alone. The divisions can round past a demand whose product
		// rounded into the cell (cmax 16, quantum 0.1125: 1.8 ->
		// 1.7999999999999998 for c/inv); such a demand keys the
		// neighboring cell, whose shared corner is then on its side.
		cell := int64(math.Ceil(d * g.inv[i]))
		if float64(cell)/g.inv[i] < d {
			cell++
		} else if float64(cell-1)/g.inv[i] > d {
			cell--
		}
		lo[i], ub[i] = float64(max(cell-1, 0))/g.inv[i], float64(cell)/g.inv[i]
		buf = strconv.AppendInt(buf, cell, 36)
		buf = append(buf, '|')
	}
	buf = strconv.AppendInt(buf, int64(k), 36)
	return string(buf), lo, ub, g
}

// get returns the key's entry if it still answers the cell [lo, ub],
// of grid g, on the shards' current snapshots — the copy that absorbed
// the changes since, which takes its place, when there were any. A hit
// in the old generation is promoted back into the new one so rotation
// cannot drop a still-hot key; an entry the walk invalidated is a miss,
// counted stale, which the caller's put replaces.
func (qc *queryCache) get(key string, g *cacheGrid, lo, ub vector.Vec, k int, shards []*shard) (*cacheEntry, bool) {
	qc.mu.RLock()
	ent, ok := qc.newGen[key]
	old := false
	if !ok {
		ent, ok = qc.oldGen[key]
		old = ok
	}
	if qc.grid.Load() != g { // re-gridded since the caller's quantize
		ok = false
	}
	qc.mu.RUnlock()
	if ok {
		cur, valid := ent.holds(lo, ub, k, shards, qc.scale)
		switch {
		case !valid:
			ok = false
			qc.stale.Add(1)
			qc.winStale.Add(1)
		case old || cur != ent:
			qc.put(key, g, cur)
		}
		ent = cur
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
	return ent, true
}

// put stores an entry in the new generation: a fill, or the entry a
// lookup validated, promoted or replaced. When the new generation
// reaches half the configured capacity it rotates into the old
// generation (dropping the previous old one), so a full cache degrades
// gradually — the recently filled half survives — instead of losing
// every hot entry at once. An entry quantized on grid g is dropped once
// a re-grid has replaced g.
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
	delete(qc.oldGen, key)
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
