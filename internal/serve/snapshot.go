package serve

import (
	"cmp"
	"slices"

	"pidcan/internal/proto"
	"pidcan/internal/serve/index"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// Snapshot is an immutable view of one shard's records — every alive
// node's advertised availability, read from the shard's backend, so no
// record in it is ever stale — taken at a point of the shard's
// simulation clock. Shards publish snapshots
// through an atomic pointer; readers never lock, never mutate, and
// never observe a partially built snapshot.
type Snapshot struct {
	// Shard is the owning shard's index.
	Shard int
	// Version increments with every publication.
	Version uint64
	// Taken is the shard-local simulation time of the snapshot.
	Taken sim.Time
	// Records holds one record per alive node, ascending by node id.
	// It is a view derived from the index, not what a shard stores:
	// a published snapshot leaves it nil, and Engine.Snapshot fills it
	// in on the caller's goroutine, materialising it once per index
	// version (every snapshot published over an unchanged index shares
	// the array). It is what the referee (proto.BestFit, see
	// Engine.Referee) reads; no record in it ever expires. Records,
	// their Avail vectors, and everything reachable from them are
	// shared and must not be mutated.
	Records []proto.Record
	// flat is the shard's copy-on-write dominance index, built against
	// the engine's CMax: the one stored representation of the records,
	// and what every read of a snapshot goes through. Immutable and
	// shared, like everything else here.
	flat *index.Flat
	// indexed is the Version that first published flat: snapshots an
	// idle tick republishes over an unchanged index keep it. A cached
	// answer read from this index stays valid while it does.
	indexed uint64
}

// Len returns the number of records (alive nodes) in the snapshot.
func (s *Snapshot) Len() int { return s.flat.Len() }

// Search appends to dst the candidates needed to rank the k
// smallest-surplus records of this snapshot dominating demand — at
// least the true top k
// (the index may add a few near score ties; callers rank the merged
// set with RankCandidates, which is what guarantees the final
// order). k <= 0 returns every match. scale must be the engine's
// CMax, the scale the index was built against. The second result
// counts records visited, the engine's sub-linearity gauge.
//
// This is the one-snapshot search. An engine query does not call it
// per shard: Engine.searchShards merges the shards' scans under one
// cutoff.
func (s *Snapshot) Search(dst []Candidate, demand, scale vector.Vec, k int) ([]Candidate, int) {
	var buf [8]int32
	entries, visited := s.flat.Search(buf[:0], demand, k)
	return s.resolve(dst, entries, demand, scale), visited
}

// resolve appends the candidates behind entries, positions an index
// scan of this snapshot reported for demand.
func (s *Snapshot) resolve(dst []Candidate, entries []int32, demand, scale vector.Vec) []Candidate {
	for _, e := range entries {
		avail := s.flat.Row(e)
		dst = append(dst, Candidate{
			Node:    Global(s.Shard, s.flat.NodeAt(e)),
			Avail:   avail,
			Surplus: avail.Surplus(demand, scale),
		})
	}
	return dst
}

// Candidate is one qualified node of a query response.
type Candidate struct {
	// Node is the cross-shard global id — for a migrated node, the
	// stable external id Join handed out (the same id Nodes
	// reports), which stays routable wherever the node lives.
	Node GlobalID `json:"node"`
	// Avail is the advertised availability behind the match.
	Avail vector.Vec `json:"avail"`
	// Surplus is the normalized slack of Avail over the demand the
	// caller sent, cached answer or not; the best fit is the smallest
	// surplus.
	Surplus float64 `json:"surplus"`
}

// bestFit ranks candidates by ascending surplus (ties broken by global
// id, for deterministic responses) and returns the k best, ranked: a
// prefix of cands, reordered in place. k <= 0 means no limit. For
// k <= insertMax it keeps the best k by insertion, one pass that orders
// nothing past k; otherwise it sorts them all (slices.SortFunc, not
// sort.Slice: the comparator is a total order — no two candidates share
// surplus AND node — so the non-stable sort is deterministic).
func bestFit(cands []Candidate, k int) []Candidate {
	if k <= 0 || k > insertMax {
		slices.SortFunc(cands, rank)
		if k > 0 && len(cands) > k {
			cands = cands[:k]
		}
		return cands
	}
	n := 0 // cands[:n] holds the best seen so far, ranked
	for _, c := range cands {
		if n == k && rank(c, cands[k-1]) >= 0 {
			continue
		}
		if n < k {
			n++ // then c is cands[n-1] itself: nothing was skipped yet
		}
		i := n - 1
		for ; i > 0 && rank(c, cands[i-1]) < 0; i-- {
			cands[i] = cands[i-1]
		}
		cands[i] = c
	}
	return cands[:n]
}

// insertMax is the largest k bestFit ranks by insertion.
const insertMax = 32

// rank orders candidates best fit first: by surplus, then by id.
func rank(a, b Candidate) int {
	if c := cmp.Compare(a.Surplus, b.Surplus); c != 0 {
		return c
	}
	return cmp.Compare(a.Node, b.Node)
}
