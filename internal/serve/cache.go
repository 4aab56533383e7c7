package serve

import (
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/vector"
)

// queryCache memoizes recent query responses keyed by the quantized
// demand vector and k. An entry stays valid for one freshness window
// (TTL) and, when epoch invalidation is on (Config.CacheEpochBound),
// only while the engine's write epoch has not advanced more than the
// bound past the entry's fill — every applied batch that mutated a
// shard bumps the epoch, so a burst of joins/updates/leaves stops
// the cache from serving pre-write results even inside the TTL
// window. Under heavy read traffic this still collapses bursts of
// equivalent demands into one snapshot scan per window; residual
// staleness mirrors what the paper's index already tolerates between
// state-update cycles.
//
// Entries live in two generations: puts fill the new generation, and
// when it reaches half the configured capacity it rotates into the
// old one (whose previous content is dropped). A full cache therefore
// sheds its coldest half instead of wiping every hot entry at once,
// and an old-generation hit promotes its entry back into the new
// generation.
//
// With Config.CacheAdaptEvery set, the knobs stop being fixed: every
// adaptEvery lookups the controller compares the window's hit-rate
// and staleness-invalidation rate and adjusts TTL, quantization
// granularity and the epoch bound within fixed floors/ceilings
// around the configured values — staleness-driven misses extend
// entry lifetime, compulsory misses (demand drift marching across
// grid cells) coarsen the grid so moving demands keep aliasing onto
// live cells, and sustained high hit-rates decay the knobs back
// toward the configured (freshest, most precise) baselines.
type queryCache struct {
	max  int // total entry bound; each generation holds up to max/2
	cmax vector.Vec

	// Live knobs. Fixed at their Config values unless the adaptive
	// controller (adaptEvery > 0) is steering them.
	ttl        atomic.Int64  // nanoseconds
	epochBound atomic.Uint64 // 0: TTL-only expiry
	grid       atomic.Pointer[cacheGrid]

	// Adaptive-controller configuration (constants after build).
	adaptEvery       uint64
	ttlMin, ttlMax   int64
	qMin, qMax       float64
	boundMin, bndMax uint64

	mu     sync.RWMutex
	newGen map[string]cacheEntry
	oldGen map[string]cacheEntry

	// recheckHook, when set (tests only), runs between the read-locked
	// lookup of a stale entry and the write-locked recheck — the
	// window a concurrent put can refresh the key in.
	recheckHook func()

	hits      atomic.Uint64
	misses    atomic.Uint64
	rotations atomic.Uint64 // generation rotations (cache_resets)
	stale     atomic.Uint64 // entries invalidated at lookup (TTL or epoch)
	adaptions atomic.Uint64 // controller knob adjustments

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

// Adaptive-controller thresholds: grow knobs when a window's
// hit-rate falls below adaptHitLow, decay them back toward the
// configured baselines above adaptHitHigh; a window whose misses are
// more than adaptStaleShare invalidations is lifetime-bound (extend
// TTL/epoch headroom), otherwise compulsory (coarsen the grid).
const (
	adaptHitLow     = 0.70
	adaptHitHigh    = 0.90
	adaptStaleShare = 0.25
)

func newQueryCache(cfg Config) *queryCache {
	bound := uint64(0)
	if cfg.CacheEpochBound > 0 {
		bound = uint64(cfg.CacheEpochBound)
	}
	qc := &queryCache{
		max:      cfg.CacheSize,
		cmax:     cfg.CMax,
		ttlMin:   int64(cfg.CacheTTL / 4),
		ttlMax:   int64(40 * cfg.CacheTTL),
		qMin:     cfg.CacheQuantum,
		qMax:     cfg.CacheQuantumMax,
		boundMin: bound,
		newGen:   make(map[string]cacheEntry),
		oldGen:   make(map[string]cacheEntry),
	}
	if cfg.CacheAdaptEvery > 0 {
		qc.adaptEvery = uint64(cfg.CacheAdaptEvery)
		qc.bndMax = bound * 16
	}
	qc.ttl.Store(int64(cfg.CacheTTL))
	qc.epochBound.Store(bound)
	qc.grid.Store(newGrid(cfg.CacheQuantum, cfg.CMax))
	return qc
}

type cacheEntry struct {
	resp  QueryResponse
	at    time.Time
	epoch uint64 // engine write epoch at fill
}

// quantize maps demand onto the cache grid: it returns the cache key
// for (demand, k) and the cell's upper-bound demand. Responses
// shared through the cache are computed against that upper bound, so
// every demand landing in the cell receives candidates that dominate
// it — conservative (a candidate may be skipped near a cell edge),
// never the reverse.
func (qc *queryCache) quantize(demand vector.Vec, k int) (string, vector.Vec) {
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
	return string(buf), ub
}

// fresh reports whether an entry may still be served: inside its TTL
// window and, with epoch invalidation on, filled no more than
// epochBound write batches before the reader's epoch. An entry
// filled at or after the reader's own epoch view is fresh by
// definition — a reader that loaded its epoch before being preempted
// must not treat a newer fill as stale (the unsigned subtraction
// would wrap and evict brand-new entries).
func (qc *queryCache) fresh(e cacheEntry, now time.Time, epoch uint64) bool {
	if now.Sub(e.at) > time.Duration(qc.ttl.Load()) {
		return false
	}
	bound := qc.epochBound.Load()
	return bound == 0 || e.epoch >= epoch || epoch-e.epoch <= bound
}

// lookup finds the key in either generation (new first). Read lock
// only.
func (qc *queryCache) lookup(key string) (cacheEntry, bool, bool) {
	qc.mu.RLock()
	e, ok := qc.newGen[key]
	old := false
	if !ok {
		e, ok = qc.oldGen[key]
		old = ok
	}
	qc.mu.RUnlock()
	return e, ok, old
}

// get returns the cached response for the key if it is still fresh
// at the given time and write epoch. The response's Candidates slice
// is a private copy — callers may re-rank or otherwise mutate it
// without corrupting the cache. A stale entry is deleted on lookup
// (and counted as an invalidation); a fresh hit in the old
// generation is promoted back into the new one so rotation cannot
// drop a still-hot key.
func (qc *queryCache) get(key string, now time.Time, epoch uint64) (QueryResponse, bool) {
	e, ok, old := qc.lookup(key)
	if ok && !qc.fresh(e, now, epoch) {
		if qc.recheckHook != nil {
			qc.recheckHook()
		}
		qc.mu.Lock()
		// Re-check under the write lock: a concurrent put may have
		// refreshed the key since the read above — then the live,
		// fresh entry is the hit, not a forced rescan.
		if cur, live := qc.newGen[key]; live && qc.fresh(cur, now, epoch) {
			e = cur
		} else if cur, live := qc.oldGen[key]; live && qc.fresh(cur, now, epoch) {
			e = cur
		} else {
			if _, live := qc.newGen[key]; live {
				delete(qc.newGen, key)
			}
			if _, live := qc.oldGen[key]; live {
				delete(qc.oldGen, key)
			}
			qc.stale.Add(1)
			qc.winStale.Add(1)
			ok = false
		}
		qc.mu.Unlock()
	} else if ok && old {
		// Fresh old-generation hit: promote, so the next rotation
		// keeps it.
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
		return QueryResponse{}, false
	}
	qc.hits.Add(1)
	resp := e.resp
	resp.Candidates = append([]Candidate(nil), e.resp.Candidates...)
	return resp, true
}

// put stores a response filled at the given write epoch. When the new
// generation reaches half the configured capacity it rotates into
// the old generation (dropping the previous old one), so a full
// cache degrades gradually — the recently filled half survives —
// instead of losing every hot entry at once.
func (qc *queryCache) put(key string, resp QueryResponse, now time.Time, epoch uint64) {
	qc.mu.Lock()
	if len(qc.newGen) >= qc.halfMax() {
		qc.oldGen = qc.newGen
		qc.newGen = make(map[string]cacheEntry, qc.halfMax()/4+1)
		qc.rotations.Add(1)
	}
	// A slow reader must not clobber a fill made from a newer epoch
	// view — its entry would read as instantly stale to everyone
	// else and force rescans of a key that was just refreshed.
	if cur, ok := qc.newGen[key]; !ok || cur.epoch <= epoch {
		qc.newGen[key] = cacheEntry{resp: resp, at: now, epoch: epoch}
	}
	qc.mu.Unlock()
}

func (qc *queryCache) halfMax() int {
	h := qc.max / 2
	if h < 1 {
		h = 1
	}
	return h
}

// adapt is the controller step, run once per adaptEvery lookups by
// whichever reader crossed the window boundary. All knob updates are
// atomic; a re-grid additionally clears both generations (the old
// keys are unreachable under the new grid).
func (qc *queryCache) adapt() {
	hits := qc.winHits.Swap(0)
	stale := qc.winStale.Swap(0)
	total := qc.adaptEvery
	hitRate := float64(hits) / float64(total)
	staleShare := float64(stale) / float64(total)
	switch {
	case hitRate < adaptHitLow:
		if staleShare > adaptStaleShare {
			// Lifetime-bound misses: entries die before reuse.
			qc.bumpTTL(2)
			if b := qc.epochBound.Load(); b > 0 && b*2 <= qc.bndMax {
				qc.epochBound.Store(b * 2)
				qc.adaptions.Add(1)
			}
			return
		}
		// Compulsory misses: the demand distribution moved off the
		// grid. Coarsen so drifting demands alias onto live cells,
		// and give the bigger cells time to be revisited.
		qc.regrid(math.Min(qc.grid.Load().quantum*1.5, qc.qMax))
		qc.bumpTTL(1.25)
	case hitRate > adaptHitHigh && staleShare < 0.05:
		// Comfortable: decay toward the configured baseline for
		// freshness (TTL, epoch bound) and precision (grid).
		qc.decayTTL()
		if b := qc.epochBound.Load(); b > qc.boundMin {
			qc.epochBound.Store(maxU64(b/2, qc.boundMin))
			qc.adaptions.Add(1)
		}
		if hitRate > 0.97 {
			qc.regrid(math.Max(qc.grid.Load().quantum/1.25, qc.qMin))
		}
	}
}

func (qc *queryCache) bumpTTL(factor float64) {
	cur := qc.ttl.Load()
	next := int64(float64(cur) * factor)
	if next > qc.ttlMax {
		next = qc.ttlMax
	}
	if next != cur {
		qc.ttl.Store(next)
		qc.adaptions.Add(1)
	}
}

func (qc *queryCache) decayTTL() {
	cur := qc.ttl.Load()
	next := cur * 3 / 4
	if next < qc.ttlMin {
		next = qc.ttlMin
	}
	if next != cur {
		qc.ttl.Store(next)
		qc.adaptions.Add(1)
	}
}

// regrid swaps the quantization grid and clears both generations:
// keys minted under the old grid can never be looked up again.
func (qc *queryCache) regrid(quantum float64) {
	if quantum == qc.grid.Load().quantum {
		return
	}
	qc.mu.Lock()
	qc.grid.Store(newGrid(quantum, qc.cmax))
	qc.newGen = make(map[string]cacheEntry)
	qc.oldGen = make(map[string]cacheEntry)
	qc.mu.Unlock()
	qc.adaptions.Add(1)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// cacheStats is the point-in-time counter/knob view Stats reports.
type cacheStats struct {
	hits, misses, rotations uint64
	stale, adaptions        uint64
	entries                 int
	ttl                     time.Duration
	quantum                 float64
	epochBound              uint64
}

func (qc *queryCache) stats() cacheStats {
	qc.mu.RLock()
	n := len(qc.newGen) + len(qc.oldGen)
	qc.mu.RUnlock()
	return cacheStats{
		hits:       qc.hits.Load(),
		misses:     qc.misses.Load(),
		rotations:  qc.rotations.Load(),
		stale:      qc.stale.Load(),
		adaptions:  qc.adaptions.Load(),
		entries:    n,
		ttl:        time.Duration(qc.ttl.Load()),
		quantum:    qc.grid.Load().quantum,
		epochBound: qc.epochBound.Load(),
	}
}
