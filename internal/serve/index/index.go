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
// structure-of-arrays: node ids, scores (binary searched), one-word
// dominance signatures (what a scan reads), stored and expiry times, a
// row-major packed availability matrix (read only for the few entries
// whose signature passes) and the block's own per-dimension maximum.
// Over the blocks sits a per-version directory: the block pointers,
// each block's first score (binary searched to find where a scan
// starts) and, per block, the per-dimension maximum over that block
// and every later one. A second sequence of chunks, ordered by node
// id, maps every node to its current score, so an entry can be found
// from its node id in O(log n).
//
// A signature packs one byte lane per dimension, for the first
// sigDims dimensions: the availability as a fraction of cmax,
// quantized *up* to sigMax steps. A demand's signature is quantized
// *down*. Multiplication by a positive constant, ceil, floor and
// clamping are all monotone, so avail[d] >= demand[d] implies the
// record's lane is >= the demand's: one SWAR compare of the two words
// is a necessary condition for dominance that never rejects a match.
// Lanes of unscored dimensions (cmax[d] == 0) and of dimensions past
// sigDims are 0 in a demand's signature and always pass; values above
// cmax clamp to sigMax on both sides. The exact test on the
// availability row still decides every entry that is reported.
//
// A query for the k best records dominating demand is a Cursor over
// each index it spans (one for Search, one per shard for the serving
// engine) and one Bound shared between them:
//
//  1. Seek binary-searches the directory, then one block, for the
//     first entry with score >= D — a necessary condition for
//     dominance, and exact in floating point because score and D are
//     accumulated with the same per-dimension multiplications in the
//     same order;
//  2. Step scans one block ascending: it binary-searches the block's
//     scores for where the Bound's cutoff falls, compares the
//     signatures up to there, and runs the expiry and exact dominance
//     tests on the entries that pass. Every match is reported and its
//     score offered to the Bound, which keeps the k smallest match
//     scores seen by any cursor; the cutoff is the largest of them
//     plus a tie slack (near-equal-score entries stay in play: the
//     caller re-ranks by the exactly-computed surplus, so rounding
//     between score subtraction and the reference Σ(a-w)/c summation
//     can never change the reported candidate set) and only ever
//     shrinks. Stepping whichever cursor has the lowest next score
//     makes several indexes one score-ordered scan;
//  3. a cursor retires when its next score is past the cutoff, when
//     it runs out of blocks, or when — checked once per block, from
//     the directory — some dimension of the demand is reached neither
//     by the block it is about to enter nor by any later one.
//
// What is visited. The entries a scan compares are those of one
// whole-population array sorted by score, from the first score >= D
// to the cutoff, whatever number of indexes the population is spread
// over — plus at most the block each cursor was in when the cutoff
// last shrank, and at most one block more per cursor at a hopeless
// tail, because the tail is cut at block boundaries. The visited
// count therefore depends on where a history of updates happened to
// cut the blocks by at most a block per cursor.
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

// A signature has one byte lane for each of the first sigDims
// dimensions, holding 0..sigMax; lanes is the spare high bit of every
// lane, which is what lets one subtraction compare all of them.
const (
	sigDims = 8
	sigMax  = 127
	lanes   = 0x8080808080808080
)

// tieSlack bounds how far apart two scores can be while their
// exactly-computed surpluses could still order the other way. The
// score arithmetic (multiply by 1/cmax, sum) and the reference
// surplus arithmetic (subtract, divide by cmax, sum) agree to ~1e-15
// relative per dimension; 1e-9 absolute over scores in [0, dims] is
// orders of magnitude beyond any reachable discrepancy.
const tieSlack = 1e-9

// blockCap is the most entries a block holds: at five dimensions a
// full block is ~10 KB, so the two blocks a one-node update rewrites
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
	sig     []uint64 // entry i's dominance signature (see Flat.signature)
	stored  []sim.Time
	expires []sim.Time
	vals    []float64 // row-major: entry i's availability at vals[i*dims : (i+1)*dims]
	max     []float64 // max[d] = largest vals[i*dims+d] in the block
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
// entry at of the staging block, whose key it is, joins. Build sorts
// the same triple, at being the record's position in its input.
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
	reach  []float64 // row-major: reach[b*dims+d] = max of dimension d over blocks b..
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
	// What is sorted is a (score, node, position in recs) triple per
	// record, not the records; each sequence is then written in one run.
	n := len(recs)
	order := make([]op, n)
	ids := f.newBlock(n, true)
	for i := range recs {
		order[i] = op{key{f.scoreOf(recs[i].Avail), recs[i].Node}, int32(i)}
		ids.nodes[i], ids.score[i] = order[i].node, order[i].score
	}
	f.byNode = f.emit(nil, []span{{ids, 0, int32(n)}}, n, true)
	slices.SortFunc(order, func(a, b op) int { return a.cmp(b.key, false) })
	stage := f.newBlock(n, false)
	for at, o := range order {
		f.put(stage, at, &recs[o.at], o.score)
	}
	f.blocks = f.emit(nil, []span{{stage, 0, int32(n)}}, n, false)
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
		f.put(b, i, &recs[i], f.scoreOf(recs[i].Avail))
	}
	return b
}

// put writes r, whose score is score, as entry i of b.
func (f *Flat) put(b *block, i int, r *proto.Record, score float64) {
	b.nodes[i], b.score[i], b.sig[i], b.stored[i], b.expires[i] = r.Node, score, f.signature(r.Avail, true), r.Stored, r.Expires
	copy(b.vals[i*f.dims:(i+1)*f.dims], r.Avail)
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
				copy(b.sig[at:], s.b.sig[lo:hi])
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

// newBlock allocates an n-entry block: one allocation per element
// type, whatever the number of columns.
func (f *Flat) newBlock(n int, byNode bool) *block {
	b := &block{nodes: make([]overlay.NodeID, n)}
	if byNode {
		b.score = make([]float64, n)
		return b
	}
	w := n * f.dims
	floats := make([]float64, n+w+f.dims)
	b.score, b.vals, b.max = floats[:n:n], floats[n:n+w:n+w], floats[n+w:]
	b.sig = make([]uint64, n)
	times := make([]sim.Time, 2*n)
	b.stored, b.expires = times[:n:n], times[n:]
	return b
}

// summarize derives a filled block's per-dimension maximum and expiry
// flag.
func (f *Flat) summarize(b *block) {
	copy(b.max, b.vals)
	for i := 1; i < len(b.nodes); i++ {
		for d, v := range b.vals[i*f.dims : (i+1)*f.dims] {
			b.max[d] = max(b.max[d], v)
		}
	}
	b.expiry = slices.ContainsFunc(b.expires, func(e sim.Time) bool { return e != never })
}

// finish derives the directory over f.blocks.
func (f *Flat) finish() {
	nb, dims := len(f.blocks), f.dims
	dir := make([]float64, nb*(1+dims))
	f.first, f.reach = dir[:nb:nb], dir[nb:]
	for bi := nb - 1; bi >= 0; bi-- {
		b := f.blocks[bi]
		f.n += len(b.nodes)
		f.first[bi] = b.score[0]
		reach := f.reach[bi*dims : (bi+1)*dims]
		copy(reach, b.max)
		if bi+1 < nb {
			for d, later := range f.reach[(bi+1)*dims : (bi+2)*dims] {
				reach[d] = max(reach[d], later)
			}
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
		m[d] = max(m[d], f.reach[d])
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

// signature packs v, a fraction of cmax per dimension quantized to
// sigMax steps, one byte lane per dimension: up for an availability,
// down for a demand, so that a record dominating a demand has every
// lane >= the demand's (see the package comment). Unscored dimensions
// quantize to 0; values outside [0, cmax] clamp.
func (f *Flat) signature(v vector.Vec, up bool) uint64 {
	var sig uint64
	for d, inv := range f.inv[:min(f.dims, sigDims)] {
		q := v[d] * (inv * sigMax)
		if up {
			q = math.Ceil(q)
		}
		lane := uint64(sigMax)
		if !(q > 0) { // also a NaN, from an infinite value in an unscored dimension
			lane = 0
		} else if q < sigMax {
			lane = uint64(q)
		}
		sig |= lane << (8 * d)
	}
	return sig
}

// Bound is the cutoff the cursors of one query share: it keeps the k
// smallest match scores any of them has reported, and once there are k
// no cursor needs to look past the largest (plus tieSlack). The cutoff
// only ever shrinks. k <= 0 means no cutoff: every match is wanted.
type Bound struct {
	k, n int
	heap []float64 // heap[:n] holds the kept scores, a max-heap
	cut  float64
}

// NewBound returns the bound of a k-best query. The kept scores live
// in scratch (all of it: its contents are overwritten) while they fit.
func NewBound(k int, scratch []float64) Bound {
	return Bound{k: k, heap: scratch, cut: math.Inf(1)}
}

// offer records a match's score and reports whether the cutoff shrank.
func (b *Bound) offer(score float64) bool {
	h := b.heap
	switch {
	case b.k <= 0:
		return false
	case b.n < b.k:
		if b.n == len(h) {
			// A fresh array, not an append: the scratch the caller lent
			// stays on its stack. Grown as matches arrive, never to an
			// unvetted k.
			grown := make([]float64, 2*len(h)+8)
			copy(grown, h)
			b.heap, h = grown, grown
		}
		i := b.n
		for h[i] = score; i > 0 && h[(i-1)/2] < h[i]; i = (i - 1) / 2 {
			h[(i-1)/2], h[i] = h[i], h[(i-1)/2]
		}
		if b.n++; b.n < b.k {
			return false
		}
	case score < h[0]:
		h[0] = score
		for i := 0; ; {
			big := i
			if l := 2*i + 1; l < b.n && h[l] > h[big] {
				big = l
			}
			if r := 2*i + 2; r < b.n && h[r] > h[big] {
				big = r
			}
			if big == i {
				break
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	default:
		return false
	}
	b.cut = h[0] + tieSlack
	return true
}

// Cursor is a resumable ascending scan of one version for one demand.
// Seek makes one; Step advances it a block at a time until Done.
type Cursor struct {
	f      *Flat
	demand vector.Vec
	now    sim.Time
	sig    uint64  // the demand's signature
	bi, lo int     // the next entry to visit: entry lo of blocks[bi]; bi == len(blocks) once retired
	next   float64 // its score
}

// Seek returns a cursor at the first entry of f whose score allows it
// to dominate demand, for a scan that treats entries expired at now as
// absent.
func (f *Flat) Seek(demand vector.Vec, now sim.Time) Cursor {
	c := Cursor{f: f, demand: demand, now: now, bi: len(f.blocks)}
	if len(f.blocks) == 0 {
		return c
	}
	c.sig = f.signature(demand, false)
	D := f.scoreOf(demand)
	// The first entry with score >= D is in the block before the first
	// one that starts at or past D, or is that block's first entry.
	bi := max(sort.SearchFloat64s(f.first, D)-1, 0)
	lo := sort.SearchFloat64s(f.blocks[bi].score, D)
	if lo == len(f.blocks[bi].score) {
		bi, lo = bi+1, 0
	}
	c.enter(bi, lo)
	return c
}

// enter moves the cursor to entry lo of block bi, or retires it: when
// there is no such block, or when some dimension of the demand is
// reached neither by that block nor by any later one.
func (c *Cursor) enter(bi, lo int) {
	f := c.f
	if c.bi = len(f.blocks); bi >= len(f.blocks) {
		return
	}
	reach := f.reach[bi*f.dims : (bi+1)*f.dims]
	for d, w := range c.demand {
		if reach[d] < w {
			return
		}
	}
	// A block is entered from the directory alone; its own columns are
	// first read when it is scanned.
	if c.bi, c.lo, c.next = bi, lo, f.first[bi]; lo > 0 {
		c.next = f.blocks[bi].score[lo]
	}
}

// Done reports whether the cursor has retired: nothing it has not
// visited can be among the matches its query wants.
func (c *Cursor) Done() bool { return c.bi == len(c.f.blocks) }

// Next returns the score of the next entry the cursor would visit, a
// lower bound on every score it has yet to report. Meaningful only
// while the cursor is not Done.
func (c *Cursor) Next() float64 { return c.next }

// Step scans the rest of the cursor's current block, as far as
// bound's cutoff: it appends to dst every unexpired entry dominating
// the demand (opaque positions: resolve them with NodeAt/Row on the
// cursor's version), offers each one's score to bound, and moves to
// the next block or retires. The second result is how many entries it
// visited. Stepping a cursor that is Done does nothing.
func (c *Cursor) Step(dst []int32, bound *Bound) ([]int32, int) {
	if c.Done() {
		return dst, 0
	}
	f, bi, lo := c.f, c.bi, c.lo
	if c.next > bound.cut {
		c.bi = len(f.blocks)
		return dst, 0
	}
	b := f.blocks[bi]
	// past is where the cutoff falls in the block: found by binary
	// search, here and whenever a match moves it, not by comparing a
	// score per entry — and not at all while the next block starts
	// under the cutoff.
	past := len(b.score)
	if bi+1 == len(f.blocks) || f.first[bi+1] > bound.cut {
		past = lo + within(b.score[lo:], bound.cut)
	}
scan:
	for i := lo; ; i++ {
		if i += passing(b.sig[i:past], c.sig); i == past {
			break
		}
		if b.expiry && c.now >= b.expires[i] {
			continue
		}
		row := b.vals[i*f.dims : (i+1)*f.dims]
		for d, w := range c.demand {
			if row[d] < w {
				continue scan
			}
		}
		dst = append(dst, int32(bi<<blockShift|i))
		if bound.offer(b.score[i]) && b.score[past-1] > bound.cut {
			past = i + 1 + within(b.score[i+1:past], bound.cut)
		}
	}
	if past < len(b.score) {
		c.bi = len(f.blocks)
	} else {
		c.enter(bi+1, 0)
	}
	return dst, past - lo
}

// passing returns the position of the first of sigs that passes the
// demand signature want — every lane >= want's — or len(sigs). This
// loop is the scan: one word read and one compare per rejected entry.
// Kept out of line because inlined into Step it loses its registers to
// the code around it (measured: 15-25% of a search).
//
//go:noinline
func passing(sigs []uint64, want uint64) int {
	for i, sig := range sigs {
		if ((sig|lanes)-want)&lanes == lanes {
			return i
		}
	}
	return len(sigs)
}

// within returns how many of the ascending scores are <= cut.
func within(scores []float64, cut float64) int {
	return sort.Search(len(scores), func(i int) bool { return scores[i] > cut })
}

// Search appends to dst the entries (opaque positions: resolve them
// with NodeAt/Row on this version) of every record needed to rank the
// k smallest-surplus unexpired records dominating demand: the first k
// matches in score order plus any further match within tieSlack of
// the k-th score (so a caller re-ranking by exact surplus can never
// be missing a true top-k member). k <= 0 returns every match. The
// second result is how many entries the scan visited — the
// sub-linearity measurement the engine aggregates. It is the
// one-cursor scan; the serving engine steps one cursor per shard
// against one Bound.
func (f *Flat) Search(dst []int32, demand vector.Vec, now sim.Time, k int) ([]int32, int) {
	var scratch [8]float64
	bound := NewBound(k, scratch[:])
	visited := 0
	for c := f.Seek(demand, now); !c.Done(); {
		var n int
		dst, n = c.Step(dst, &bound)
		visited += n
	}
	return dst, visited
}
