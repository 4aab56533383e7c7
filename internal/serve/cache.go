package serve

import (
	"math"
	"slices"
	"sync/atomic"

	"pidcan/internal/serve/index"
	"pidcan/internal/vector"
)

// queryCache memoizes answers per exact (demand, k): a direct-mapped
// table of cacheSize slots, each holding the entry of one key, which a
// fill of a colliding key replaces. An entry is the ranked answer as
// the uncached query gave it, its cut (the merged scan's final cutoff)
// and, per shard, the Snapshot.indexed of the snapshot it was read
// from. It answers outright while every shard still publishes that
// index; an idle tick that republishes an unchanged index keeps it.
//
// A shard that has published a new index since is rechecked
// (Engine.cached): one cursor over its current index, from the
// demand's score up to the cut. The entry still holds when every
// cached candidate of that shard is found with a bit-identical row and
// every other match found ranks after the entry's last candidate (with
// fewer than k candidates, when no other match is found at all). The
// fill's scan visited every match scoring at or under the cut, on every
// shard; an unmoved shard still holds the same ones; and a record
// scoring above the cut ranks after the k-th candidate (the index's
// tie slack). So an entry that holds is the answer a NoCache query
// gives, and is stored again stamped with the current indexes. A write
// is acknowledged only once its snapshot is live, so a caller's next
// cached query sees its own write.
//
// Entries are immutable once stored: a lookup loads a slot, compares
// its key, loads each shard's snapshot and copies the answer. There is
// no lock, no map, no history of writes and no eviction beyond the
// collision.
type queryCache struct {
	// slots is the table, allocated by the first fill (put): an engine
	// that answers only NoCache queries never holds its 32 KiB, and
	// building one allocates none of it.
	slots atomic.Pointer[[cacheSize]atomic.Pointer[cacheEntry]]
}

// cacheSize is the engine's number of cache slots, a power of two.
const (
	cacheBits = 12
	cacheSize = 1 << cacheBits
)

// cacheEntry is one cached answer. The candidates carry physical ids
// (a response externalizes its copy) and Avail views of rows the entry
// owns, so it pins no index block. A recheck's copy shares the
// demand, the answer and the rows with the entry it replaces.
type cacheEntry struct {
	k       int
	demand  vector.Vec  // the key's demand, a copy
	cands   []Candidate // the answer, ranked
	cut     float64     // the fill's final cutoff: the k-th match score plus the tie slack, +Inf with fewer than k matches
	indexed []uint64    // per shard, the Snapshot.indexed the answer holds for
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

// cached returns the slot of (demand, k) and, on a hit, its entry: the
// key's, holding for the index every shard publishes now — outright, or
// after a recheck of the shards that moved (see queryCache).
func (e *Engine) cached(demand vector.Vec, k int, st *readStripe) (int, *cacheEntry) {
	slot := slotOf(demand, k)
	var ent *cacheEntry
	if t := e.cache.slots.Load(); t != nil {
		ent = t[slot].Load()
	}
	if ent == nil || !ent.is(demand, k) {
		st.n[rdMisses].Add(1)
		return slot, nil
	}
	var (
		q       index.Demand
		indexed []uint64 // the stamp of the recheck's copy, once a shard moved
	)
	for i, s := range e.shards {
		snap := s.snapshot()
		if snap.indexed == ent.indexed[i] {
			continue
		}
		if indexed == nil { // the first moved shard: every earlier one passed and set indexed
			q = snap.flat.Prepare(demand)
		}
		holds, visited := ent.holds(snap, q, e.cfg.CMax)
		st.n[rdRescanned].Add(uint64(visited))
		if !holds {
			st.n[rdStale].Add(1)
			st.n[rdMisses].Add(1)
			return slot, nil
		}
		if indexed == nil {
			indexed = slices.Clone(ent.indexed)
		}
		indexed[i] = snap.indexed
	}
	if indexed != nil {
		ent = &cacheEntry{k: ent.k, demand: ent.demand, cands: ent.cands, cut: ent.cut, indexed: indexed}
		e.cache.put(slot, ent)
		st.n[rdRevalidated].Add(1)
	}
	st.n[rdHits].Add(1)
	return slot, ent
}

// holds is the recheck of one moved shard: it scans snap, the shard's
// current snapshot, for the matches of q scoring at or under the
// entry's cut, and reports whether the entry's answer survives them —
// each of its candidates from this shard found with a bit-identical
// row, every other match ranked after its last candidate, and no other
// match at all when it holds fewer than k. The second result counts
// the entries the scan visited.
func (ce *cacheEntry) holds(snap *Snapshot, q index.Demand, scale vector.Vec) (bool, int) {
	var entryBuf [16]int32
	bound := index.FixedBound(ce.cut)
	full := len(ce.cands) == ce.k
	found, visited := 0, 0
	for c := snap.flat.Seek(q); !c.Done(); {
		entries, n := c.Step(entryBuf[:0], &bound)
		visited += n
		for _, at := range entries {
			id, row := Global(snap.Shard, snap.flat.NodeAt(at)), snap.flat.Row(at)
			if j := slices.IndexFunc(ce.cands, func(c Candidate) bool { return c.Node == id }); j >= 0 {
				if !sameRow(ce.cands[j].Avail, row) {
					return false, visited
				}
				found++
				continue
			}
			other := Candidate{Node: id, Surplus: row.Surplus(ce.demand, scale)}
			if !full || rank(other, ce.cands[len(ce.cands)-1]) < 0 {
				return false, visited
			}
		}
	}
	for _, c := range ce.cands {
		if c.Node.Shard() == snap.Shard {
			found--
		}
	}
	return found == 0, visited
}

// sameRow reports whether a and b are the same vector, bit for bit.
func sameRow(a, b vector.Vec) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
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
// and with physical ids, read under cut from the indexes numbered
// indexed (searchShards).
func newCacheEntry(demand vector.Vec, k int, cands []Candidate, cut float64, indexed []uint64) *cacheEntry {
	dims := len(demand)
	vals := make([]float64, dims*(1+len(cands)))
	ce := &cacheEntry{k: k, demand: vals[:dims:dims], cands: make([]Candidate, len(cands)), cut: cut, indexed: indexed}
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
