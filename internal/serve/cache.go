package serve

import (
	"math"
	"sync/atomic"

	"pidcan/internal/vector"
)

// queryCache memoizes answers per exact (demand, k): a direct-mapped
// table of cacheSize slots, each holding the entry of one key, which a
// fill of a colliding key replaces. An entry is the ranked answer as
// the uncached query gave it, plus, per shard, the Snapshot.indexed of
// the snapshot it was read from: it answers while every shard still
// publishes that index. Any write to a shard publishes a new one, so
// the first ask after a write is a miss and a repeat hits; an idle
// tick that republishes an unchanged index keeps the entry. A write is
// acknowledged only once its snapshot is live, so a caller's next
// cached query sees its own write.
//
// Entries are immutable once stored: a lookup loads a slot, compares
// its key, loads each shard's snapshot and copies the answer. There is
// no lock, no map and no eviction beyond the collision.
type queryCache struct {
	// slots is the table, allocated by the first fill (put): an engine
	// that answers only NoCache queries never holds its 32 KiB, and
	// building one allocates none of it.
	slots atomic.Pointer[[cacheSize]atomic.Pointer[cacheEntry]]

	hits   atomic.Uint64
	misses atomic.Uint64
	stale  atomic.Uint64 // misses whose key was there, read from an index since replaced
}

// cacheSize is the engine's number of cache slots, a power of two.
const (
	cacheBits = 12
	cacheSize = 1 << cacheBits
)

// cacheEntry is one cached answer. The candidates carry physical ids
// (a response externalizes its copy) and Avail views of rows the entry
// owns, so it pins no index block.
type cacheEntry struct {
	k       int
	demand  vector.Vec  // the key's demand, a copy
	cands   []Candidate // the answer, ranked
	indexed []uint64    // per shard, the Snapshot.indexed the answer was read from
}

// slotOf maps a key onto its slot: the top bits of a multiplicative
// hash over the demand's bits and k.
func slotOf(demand vector.Vec, k int) int {
	h := uint64(k)
	for _, d := range demand {
		h = (h ^ math.Float64bits(d)) * 0x9e3779b97f4a7c15
	}
	return int(h >> (64 - cacheBits))
}

// is reports whether the entry's key is (demand, k), bit for bit.
func (ce *cacheEntry) is(demand vector.Vec, k int) bool {
	if ce.k != k || len(ce.demand) != len(demand) {
		return false
	}
	for d, x := range demand {
		if math.Float64bits(ce.demand[d]) != math.Float64bits(x) {
			return false
		}
	}
	return true
}

// get returns the slot of (demand, k) and, on a hit, its entry: the
// key's, read from the index every shard still publishes.
func (qc *queryCache) get(demand vector.Vec, k int, shards []*shard) (int, *cacheEntry) {
	slot := slotOf(demand, k)
	var ent *cacheEntry
	if t := qc.slots.Load(); t != nil {
		ent = t[slot].Load()
	}
	if ent == nil || !ent.is(demand, k) {
		qc.misses.Add(1)
		return slot, nil
	}
	for i, s := range shards {
		if s.snapshot().indexed != ent.indexed[i] {
			qc.stale.Add(1)
			qc.misses.Add(1)
			return slot, nil
		}
	}
	qc.hits.Add(1)
	return slot, ent
}

// put stores ent in its slot, replacing what the slot held.
func (qc *queryCache) put(slot int, ent *cacheEntry) {
	t := qc.slots.Load()
	if t == nil {
		qc.slots.CompareAndSwap(nil, new([cacheSize]atomic.Pointer[cacheEntry]))
		t = qc.slots.Load()
	}
	t[slot].Store(ent)
}

// newCacheEntry returns the entry of (demand, k) holding cands, ranked
// and with physical ids; the caller stamps indexed (searchShards).
func newCacheEntry(demand vector.Vec, k int, cands []Candidate, indexed []uint64) *cacheEntry {
	dims := len(demand)
	vals := make([]float64, dims*(1+len(cands)))
	ce := &cacheEntry{k: k, demand: vals[:dims:dims], cands: make([]Candidate, len(cands)), indexed: indexed}
	copy(ce.demand, demand)
	for i, c := range cands {
		row := vals[(i+1)*dims : (i+2)*dims : (i+2)*dims]
		copy(row, c.Avail)
		ce.cands[i] = Candidate{Node: c.Node, Avail: row, Surplus: c.Surplus}
	}
	return ce
}

// entries returns how many slots hold an entry.
func (qc *queryCache) entries() int {
	t, n := qc.slots.Load(), 0
	if t == nil {
		return 0
	}
	for i := range t {
		if t[i].Load() != nil {
			n++
		}
	}
	return n
}
