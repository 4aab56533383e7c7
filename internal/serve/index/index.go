// Package index implements the immutable, copy-on-write
// multi-dimensional dominance index that is the serving engine's
// snapshot: the one stored representation of a shard's records.
//
// The structure exploits one algebraic fact about the paper's
// best-fit ranking: the normalized surplus of a record r against a
// demand w, Σ_k (r.Avail[k]-w[k])/cmax[k], separates into
// score(r) - D where score(r) = Σ_k r.Avail[k]/cmax[k] depends only
// on the record and D = Σ_k w[k]/cmax[k] only on the demand. Best-fit
// order is therefore a single demand-independent total order over the
// records — ascending score — maintained per publication instead of
// computed per query.
//
// Layout. A Flat holds the records sorted by (score, node), cut into
// blocks of at most blockCap entries. A block is a small
// structure-of-arrays: node ids, scores (binary searched), stored and
// expiry times, a row-major packed availability matrix (scanned for
// the dominance test) and the block's own per-dimension suffix-max
// over that matrix. Over the blocks sits a per-version directory: the
// block pointers, each block's first score (binary searched to find
// where a scan starts) and, per block, the per-dimension maximum over
// all *later* blocks. A second sequence of chunks, ordered by node id,
// maps every node to its current score, so an entry can be found from
// its node id in O(log n).
//
// A query for the k best records dominating demand then:
//
//  1. binary-searches the directory, then one block, for the first
//     entry with score >= D — a necessary condition for dominance,
//     and exact in floating point because score and D are accumulated
//     with the same per-dimension multiplications in the same order;
//  2. scans ascending, block after block, keeping unexpired entries
//     whose availability row dominates the demand — the first k such
//     entries are the k smallest-surplus matches, so the scan stops
//     as soon as the score passes the k-th match's score (plus a tie
//     slack that keeps near-equal-score entries in play: the caller
//     re-ranks by the exactly-computed surplus, so rounding between
//     score subtraction and the reference Σ(a-w)/c summation can
//     never change the reported candidate set);
//  3. every pruneEvery non-matching entries, stops if in some
//     dimension neither the rest of the block (its local suffix-max)
//     nor any later block (the directory) reaches the demand.
//
// The scan visits exactly the entries a scan of one whole-population
// sorted array with one whole-population suffix-max would: the order
// is the same total order, and max(local suffix-max from i, maximum
// over later blocks) is the suffix-max from i. Blocks are only where
// the entries are stored, so the visited count does not depend on how
// a history of updates happened to cut them.
//
// What an update costs. Every version is immutable; Update derives
// the next one by copy-on-write. A batch that dirtied b nodes finds
// their old entries through the by-node chunks, rewrites the blocks
// and chunks that lose or gain an entry — splitting one that
// overflows blockCap evenly, carrying one that falls under minFill
// into its successor — shares every other block with its predecessor
// and rebuilds the two directories: O(b·blockCap + n/blockCap), no
// pass over the population and nothing allocated per record. A
// publication that changed nothing reuses the previous version
// outright.
package index

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// pruneEvery is how many consecutive non-matching entries the scan
// visits between suffix-max prune checks. Small enough to cut a
// hopeless tail quickly, large enough that the d-wide check never
// rivals the per-entry dominance test itself.
const pruneEvery = 32

// tieSlack bounds how far apart two scores can be while their
// exactly-computed surpluses could still order the other way. The
// score arithmetic (multiply by 1/cmax, sum) and the reference
// surplus arithmetic (subtract, divide by cmax, sum) agree to ~1e-15
// relative per dimension; 1e-9 absolute over scores in [0, dims] is
// orders of magnitude beyond any reachable discrepancy.
const tieSlack = 1e-9

// blockCap is the most entries a block holds: at five dimensions a
// full block is ~13 KB, so the two blocks a one-node update rewrites
// cost a few microseconds, while a 25 000-node shard's directory stays
// near 200 rows. minFill is the fill under which a rewritten block is
// carried into its successor.
const (
	blockShift = 7
	blockCap   = 1 << blockShift
	minFill    = blockCap / 4
)

const never = sim.Time(1<<63 - 1)

// block is one immutable run of at most blockCap entries in sequence
// order. A by-node chunk fills only nodes and score.
type block struct {
	nodes   []overlay.NodeID
	score   []float64
	stored  []sim.Time
	expires []sim.Time
	vals    []float64 // row-major: entry i's availability at vals[i*dims : (i+1)*dims]
	sufMax  []float64 // row-major: sufMax[i*dims+d] = max of vals[j*dims+d] for j >= i
	expiry  bool      // any entry with a finite expiry (skip the check otherwise)
}

func (b *block) key(i int) key { return key{b.score[i], b.nodes[i]} }

// key orders a sequence: (score, node) for the blocks, node alone for
// the by-node chunks, where the score is what the node maps to.
type key struct {
	score float64
	node  overlay.NodeID
}

func (k key) cmp(o key, byNode bool) int {
	if !byNode && k.score != o.score { // scores are never NaN
		if k.score < o.score {
			return -1
		}
		return 1
	}
	return cmp.Compare(k.node, o.node)
}

// span names entries [lo, hi) of an existing block, to be copied into
// one being written.
type span struct {
	b      *block
	lo, hi int32
}

// op is one change to a sequence: the entry at key leaves (at < 0), or
// entry at of the staging block, whose key it is, joins.
type op struct {
	key
	at int32
}

// Flat is one immutable version of the index. Build it with Build or
// derive it from a predecessor with Update; never mutate it afterwards
// — concurrent readers Search it lock-free, and any number of later
// versions share its blocks.
type Flat struct {
	blocks []*block  // ascending (score, node)
	first  []float64 // first[b] = blocks[b].score[0]
	after  []float64 // row-major: after[b*dims+d] = max of dimension d over blocks b+1..
	byNode []*block  // node → score, ascending by node
	n      int

	inv  []float64 // 1/cmax[d] for cmax[d] > 0, else 0 (dimension unscored)
	dims int

	recsOnce sync.Once // Records' one materialisation
	recs     []proto.Record
}

// Build indexes recs (ascending by node id) against the cmax scale.
// Everything is copied into the index's blocks; recs is not retained.
func Build(recs []proto.Record, cmax vector.Vec) *Flat {
	f := &Flat{inv: make([]float64, cmax.Dim()), dims: cmax.Dim()}
	for d, c := range cmax {
		if c > 0 {
			f.inv[d] = 1 / c
		}
	}
	n := len(recs)
	stage := f.load(recs)
	f.byNode = f.emit(nil, []span{{stage, 0, int32(n)}}, n, true)
	all := make([]span, n)
	for i := range all {
		all[i] = span{stage, int32(i), int32(i + 1)}
	}
	slices.SortFunc(all, func(a, b span) int { return stage.key(int(a.lo)).cmp(stage.key(int(b.lo)), false) })
	f.blocks = f.emit(nil, all, n, false)
	f.finish()
	return f
}

// Update derives the next version from f. dirty holds (as keys — the
// values are ignored) every node whose record changed, appeared, or
// disappeared since f was built; recs holds at least every surviving
// dirty node, ascending by node id — a dirty node absent from recs has
// left, records of other nodes are ignored. Only the blocks and chunks
// a dirty node leaves or enters are rewritten; see the package comment
// for the cost.
func (f *Flat) Update(recs []proto.Record, dirty map[overlay.NodeID]bool) *Flat {
	nf := &Flat{inv: f.inv, dims: f.dims}
	fresh := make([]proto.Record, 0, len(dirty))
	ops := make([]op, 0, 2*len(dirty))
	for id := range dirty {
		if score, ok := f.scoreOfNode(id); ok {
			ops = append(ops, op{key{score, id}, -1})
		}
		if i, ok := slices.BinarySearchFunc(recs, id, func(r proto.Record, id overlay.NodeID) int { return cmp.Compare(r.Node, id) }); ok {
			ops = append(ops, op{key{nf.scoreOf(recs[i].Avail), id}, int32(len(fresh))})
			fresh = append(fresh, recs[i])
		}
	}
	stage := nf.load(fresh)
	slices.SortFunc(ops, func(a, b op) int { return a.cmp(b.key, true) })
	nf.byNode = nf.apply(f.byNode, ops, stage, true)
	slices.SortFunc(ops, func(a, b op) int { return a.cmp(b.key, false) })
	nf.blocks = nf.apply(f.blocks, ops, stage, false)
	nf.finish()
	return nf
}

// load writes recs, scored, into one staging block of any size, in
// order: the source spans copy fresh entries from.
func (f *Flat) load(recs []proto.Record) *block {
	b := f.newBlock(len(recs), false)
	for i := range recs {
		r := &recs[i]
		b.nodes[i], b.score[i], b.stored[i], b.expires[i] = r.Node, f.scoreOf(r.Avail), r.Stored, r.Expires
		copy(b.vals[i*f.dims:(i+1)*f.dims], r.Avail)
	}
	return b
}

// apply derives the next version of a block sequence from ops, sorted
// in sequence order (a leaving key is present; a joining one is not,
// unless it also leaves). A block no op falls into is shared; a
// touched one is rewritten, and while what has been rewritten is under
// minFill the next block is taken in too, so only the last block may
// stay small.
func (f *Flat) apply(blocks []*block, ops []op, stage *block, byNode bool) []*block {
	out := make([]*block, 0, len(blocks)+2)
	run, n := make([]span, 0, 8), 0 // spans being rewritten (stack-sized for a one-node batch), their entries
	for bi, b := range blocks {
		if n == 0 && len(ops) == 0 {
			out = append(out, blocks[bi:]...)
			break
		}
		mine := len(ops) // the ops sorting before the next block's first key
		if bi+1 < len(blocks) {
			next := blocks[bi+1].key(0)
			mine = sort.Search(len(ops), func(i int) bool { return ops[i].cmp(next, byNode) >= 0 })
		}
		if n == 0 && mine == 0 {
			out = append(out, b)
			continue
		}
		lo := 0 // b's entries from lo on are kept and not yet in run
		for _, o := range ops[:mine] {
			at := lo + sort.Search(len(b.nodes)-lo, func(i int) bool { return b.key(lo+i).cmp(o.key, byNode) >= 0 })
			run, n = append(run, span{b, int32(lo), int32(at)}), n+at-lo
			if lo = at; o.at < 0 {
				lo++
			} else {
				run, n = append(run, span{stage, o.at, o.at + 1}), n+1
			}
		}
		run, n = append(run, span{b, int32(lo), int32(len(b.nodes))}), n+len(b.nodes)-lo
		if ops = ops[mine:]; n >= minFill {
			out, run, n = f.emit(out, run, n, byNode), run[:0], 0
		}
	}
	for _, o := range ops { // only left when blocks is empty
		run, n = append(run, span{stage, o.at, o.at + 1}), n+1
	}
	return f.emit(out, run, n, byNode)
}

// emit appends the n entries of run to out as evenly filled blocks of
// at most blockCap entries.
func (f *Flat) emit(out []*block, run []span, n int, byNode bool) []*block {
	for pieces := (n + blockCap - 1) / blockCap; pieces > 0; pieces-- {
		size := (n + pieces - 1) / pieces
		b := f.newBlock(size, byNode)
		for at := 0; at < size; {
			s := &run[0]
			take := min(int(s.hi-s.lo), size-at)
			lo, hi := int(s.lo), int(s.lo)+take
			copy(b.nodes[at:], s.b.nodes[lo:hi])
			copy(b.score[at:], s.b.score[lo:hi])
			if !byNode {
				copy(b.stored[at:], s.b.stored[lo:hi])
				copy(b.expires[at:], s.b.expires[lo:hi])
				copy(b.vals[at*f.dims:], s.b.vals[lo*f.dims:hi*f.dims])
			}
			if at, s.lo = at+take, s.lo+int32(take); s.lo == s.hi {
				run = run[1:]
			}
		}
		if !byNode {
			f.summarize(b)
		}
		out, n = append(out, b), n-size
	}
	return out
}

// newBlock allocates an n-entry block: three allocations, whatever the
// number of columns.
func (f *Flat) newBlock(n int, byNode bool) *block {
	b := &block{nodes: make([]overlay.NodeID, n)}
	if byNode {
		b.score = make([]float64, n)
		return b
	}
	w := n * f.dims
	floats := make([]float64, n+2*w)
	b.score, b.vals, b.sufMax = floats[:n:n], floats[n:n+w:n+w], floats[n+w:]
	times := make([]sim.Time, 2*n)
	b.stored, b.expires = times[:n:n], times[n:]
	return b
}

// summarize derives a filled block's suffix-max and expiry flag.
func (f *Flat) summarize(b *block) {
	copy(b.sufMax, b.vals)
	for i := len(b.vals) - f.dims - 1; i >= 0; i-- {
		if m := b.sufMax[i+f.dims]; m > b.sufMax[i] {
			b.sufMax[i] = m
		}
	}
	b.expiry = slices.ContainsFunc(b.expires, func(e sim.Time) bool { return e != never })
}

// finish derives the directory over f.blocks.
func (f *Flat) finish() {
	nb, dims := len(f.blocks), f.dims
	dir := make([]float64, nb*(1+dims)+dims)
	f.first, f.after = dir[:nb:nb], dir[nb:nb+nb*dims:nb+nb*dims]
	later := dir[nb+nb*dims:]
	for d := range later {
		later[d] = math.Inf(-1)
	}
	for bi := nb - 1; bi >= 0; bi-- {
		b := f.blocks[bi]
		f.n += len(b.nodes)
		f.first[bi] = b.score[0]
		copy(f.after[bi*dims:], later)
		for d := range later {
			later[d] = max(later[d], b.sufMax[d])
		}
	}
}

// scoreOf computes Σ_d avail[d]*inv[d] over the scored dimensions —
// the same terms, accumulated in the same order, as the D a Search
// computes from its demand, so score >= D is exact for any
// dominating record.
func (f *Flat) scoreOf(avail vector.Vec) float64 {
	s := 0.0
	for d, inv := range f.inv {
		if inv > 0 {
			s += avail[d] * inv
		}
	}
	return s
}

// scoreOfNode looks id up in the by-node chunks.
func (f *Flat) scoreOfNode(id overlay.NodeID) (float64, bool) {
	ci := sort.Search(len(f.byNode), func(i int) bool { return f.byNode[i].nodes[0] > id }) - 1
	if ci >= 0 {
		if i, ok := slices.BinarySearch(f.byNode[ci].nodes, id); ok {
			return f.byNode[ci].score[i], true
		}
	}
	return 0, false
}

// Len returns the number of indexed records.
func (f *Flat) Len() int { return f.n }

// Nodes appends every indexed node id to dst, ascending.
func (f *Flat) Nodes(dst []overlay.NodeID) []overlay.NodeID {
	for _, c := range f.byNode {
		dst = append(dst, c.nodes...)
	}
	return dst
}

// RaiseMax raises each m[d] to the largest availability any indexed
// record has in dimension d — read off the directory, not the records.
func (f *Flat) RaiseMax(m vector.Vec) {
	if len(f.blocks) == 0 {
		return
	}
	for d := range m {
		m[d] = max(m[d], f.blocks[0].sufMax[d], f.after[d])
	}
}

// Records returns the indexed records ascending by node id, each
// Avail a read-only view of its index row. The slice is built on the
// first call and shared by every later one; it must not be mutated.
func (f *Flat) Records() []proto.Record {
	f.recsOnce.Do(func() {
		// Sort (node, entry) pairs packed into one word each — ids are
		// never negative — then resolve the entries in that order.
		order := make([]uint64, 0, f.n)
		for bi, b := range f.blocks {
			for i, id := range b.nodes {
				order = append(order, uint64(id)<<32|uint64(bi<<blockShift|i))
			}
		}
		slices.Sort(order)
		f.recs = make([]proto.Record, len(order))
		for at, o := range order {
			b, i := f.blocks[uint32(o)>>blockShift], int(o&(blockCap-1))
			f.recs[at] = proto.Record{Node: b.nodes[i], Avail: f.row(b, i), Stored: b.stored[i], Expires: b.expires[i]}
		}
	})
	return f.recs
}

// NodeAt returns the node id of the entry a Search returned.
func (f *Flat) NodeAt(entry int32) overlay.NodeID {
	return f.blocks[entry>>blockShift].nodes[entry&(blockCap-1)]
}

// Row returns the availability vector of the entry a Search returned —
// a read-only view into the index's packed matrix, value-identical to
// the indexed record's Avail.
func (f *Flat) Row(entry int32) vector.Vec {
	return f.row(f.blocks[entry>>blockShift], int(entry&(blockCap-1)))
}

// row is capped so an append cannot spill into the neighboring row.
func (f *Flat) row(b *block, i int) vector.Vec {
	a := i * f.dims
	return vector.Vec(b.vals[a : a+f.dims : a+f.dims])
}

// Search appends to dst the entries (opaque positions: resolve them
// with NodeAt/Row on this version) of every record needed to rank the
// k smallest-surplus unexpired records dominating demand: the first k
// matches in score order plus any further match within tieSlack of
// the k-th score (so a caller re-ranking by exact surplus can never
// be missing a true top-k member). k <= 0 returns every match. The
// second result is how many entries the scan visited — the
// sub-linearity measurement the engine aggregates.
func (f *Flat) Search(dst []int32, demand vector.Vec, now sim.Time, k int) ([]int32, int) {
	if len(f.blocks) == 0 {
		return dst, 0
	}
	D := f.scoreOf(demand)
	// The first entry with score >= D is in the block before the first
	// one that starts at or past D, or is that block's first entry.
	bi := max(sort.SearchFloat64s(f.first, D)-1, 0)
	lo := sort.SearchFloat64s(f.blocks[bi].score, D)
	dims := f.dims
	found, visited := 0, 0
	cutoff := math.Inf(1)
	misses := 0
	for ; bi < len(f.blocks); bi, lo = bi+1, 0 {
		b := f.blocks[bi]
		for i := lo; i < len(b.score); i++ {
			if b.score[i] > cutoff {
				return dst, visited
			}
			visited++
			if b.expiry && now >= b.expires[i] {
				continue
			}
			row := b.vals[i*dims : (i+1)*dims]
			dom := true
			for d, w := range demand {
				if row[d] < w {
					dom = false
					break
				}
			}
			if dom {
				dst = append(dst, int32(bi<<blockShift|i))
				found++
				if k > 0 && found == k {
					cutoff = b.score[i] + tieSlack
				}
				continue
			}
			if misses++; misses >= pruneEvery {
				misses = 0
				local, later := b.sufMax[i*dims:(i+1)*dims], f.after[bi*dims:(bi+1)*dims]
				for d, w := range demand {
					if local[d] < w && later[d] < w {
						return dst, visited
					}
				}
			}
		}
	}
	return dst, visited
}
