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
// blocks. A block is a small structure-of-arrays, its sorted prefix of
// at most blockCap entries: node ids, scores (binary searched),
// one-word dominance signatures (what a scan reads) and a row-major
// packed availability matrix (read only for the few entries whose
// signature passes). A block written by Update's patch path shares its
// predecessor's prefix and adds two things: a bitmap of prefix entries
// that have left (dead), and a sorted tail —
// its own small set of columns, copied on every write, never appended
// into shared capacity — of entries that have entered since the prefix
// was written. Build and a rewrite produce blocks with neither. Each
// block carries the per-dimension maximum over its live entries, tail
// included. Over the blocks sits a per-version directory: the block
// pointers, each block's first score (binary searched to find where a
// scan starts) and, per block, the per-dimension maximum over that
// block and every later one. A reported position is the block index
// shifted by posShift, or'ed with the entry's place in the prefix, or
// with blockCap plus its place in the tail. The by-node views, Nodes
// and Records, are the blocks' live entries sorted by node id.
//
// Invariants, held by every version and asserted by the tests:
//
//   - A version is immutable and forkable: nothing derived from it ever
//     writes memory a reader of it can read. A patch copies the header
//     (the dead bitmap is part of it) and the tail it changes, and
//     shares the rest. The one thing written in place, the node table
//     (see What an update costs), is read by no reader and written by
//     one Update at a time: the one that claimed it, atomically, from
//     the version that owns it.
//   - The node table maps exactly its owner's live entries to their
//     scores.
//   - first[b] <= every score in block b, tail and dead entries
//     included, <= first[b+1]; an entering entry goes to the tail of
//     the last block whose first prefix key is at or below its own (of
//     block 0 when there is none). A cursor's Next is therefore a lower
//     bound on everything it can still report.
//   - A block's maximum, and so the directory's reach, is exact over
//     its live entries: a patch raises it for an entering row and
//     recomputes it when a leaving row held it in some dimension.
//   - A dead entry is never reported and never offered to a Bound.
//   - Len, Nodes, Records and the positions NodeAt/Row resolve see
//     exactly the live entries.
//   - A block's dead plus tail entries number at most patchCap, and
//     every block but the last holds at least minFill live ones. (A
//     rewrite leaves every block but the last with carryFill or more,
//     and patchCap patches cannot take that under minFill: only the
//     last block meets that rewrite trigger, when it empties.)
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
//     prefix scores for where the Bound's cutoff falls, compares the
//     signatures up to there, and runs the dead and exact dominance
//     tests on the entries that pass; then it compares every
//     signature of the block's tail, holding the few that pass to the
//     cutoff. Every signature compare goes through passing: an AVX2
//     kernel, 16 entries to a branch, where the CPU has it, and a
//     four-entry Go loop anywhere else. Every match is reported and
//     its score offered to the Bound, which keeps the k smallest match
//     scores seen by any cursor (of matches dominating its corner, when
//     it has one: see Bound); the cutoff is the largest of them
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
// tail, because the tail is cut at block boundaries — plus the dead
// entries and the tails of the blocks it scans (all of each tail, the
// entries under D in Seek's block included). The visited count of an
// Update chain therefore exceeds that of a Build of the same records by
// at most a block and a tail (blockCap+2·patchCap entries) per cursor
// plus those dead entries, and a version without writes visits exactly
// what Build's layout gives.
//
// What an update costs. Every version is immutable; Update derives
// the next one by copy-on-write. A batch that dirtied b nodes finds
// their old entries' keys in the node table — every indexed node's
// score, in a slice by node id (ids are dense) — and the blocks they
// leave or enter by binary search on the directory. Build's version
// owns a fresh table; Update on the owner writes the dirty nodes'
// scores into it and hands it to the version it returns, and Update on
// any other version forks, rebuilding a private table from that
// version's live entries in O(n). A touched block is patched — a
// new header sharing the prefix, carrying its own dead bitmap and new
// tail columns holding the entering entries — unless the patch would
// push its dead plus tail entries past patchCap or drop its live
// entries under minFill; then it is rewritten, dead entries dropped and
// tail merged in order, splitting evenly when over blockCap and
// carrying into its successor while under carryFill. Every other block
// is shared, and so are the directories unless a block's first score
// or its row of reach moved. A one-node update therefore copies two
// block headers (a tail a few hundred bytes more) and the block pointer
// array: O(b·patchCap + n/blockCap) words, amortizing a rewrite over
// patchCap touches, nothing allocated per record. A publication that
// changed nothing reuses the previous version outright.
package index

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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

// blockCap is the most entries a block's prefix holds: at five
// dimensions a full block is ~10 KB, while a 25 000-node shard's
// directory stays near 200 rows. minFill is the fewest live entries a
// block other than the last holds. A rewrite carries into its
// successor until it has written carryFill entries: under churn that
// keeps blocks about three quarters full rather than half, and a scan
// crosses that many fewer blocks (and tails). patchCap is the most
// dead plus tail entries a patched block carries before it is
// rewritten: it bounds the tail a patch copies and what a scan visits
// in vain. posShift places a block's index in a reported position
// above its prefix and its tail entries (blockCap + j).
const (
	blockShift = 7
	blockCap   = 1 << blockShift
	minFill    = blockCap / 4
	carryFill  = blockCap / 2
	patchCap   = blockCap / 8
	posShift   = blockShift + 1
)

// never is the Expires of every record Records materialises: a
// snapshot reads each live node's availability from its backend, so
// nothing it indexes goes stale.
const never = sim.Time(1<<63 - 1)

// cols is an immutable run of entries in (score, node) order, one
// column per field: a block's sorted prefix or its tail. The columns a
// scan reads for every entry come first.
type cols struct {
	sig   []uint64 // entry i's dominance signature (see Flat.signature)
	score []float64
	vals  []float64 // row-major: entry i's availability at vals[i*dims : (i+1)*dims]
	nodes []overlay.NodeID
}

func (c *cols) key(i int) key { return key{c.score[i], c.nodes[i]} }

// find returns where k is in c, or would be, and whether it is there.
func (c *cols) find(k key) (int, bool) {
	i := sort.Search(len(c.nodes), func(i int) bool { return c.key(i).cmp(k) >= 0 })
	return i, i < len(c.nodes) && c.key(i) == k
}

// block is a prefix of at most blockCap entries, minus its dead, plus
// its tail. The header holds the tail's columns and the dead bitmap
// itself: a patch writes a new header anyway, and a scan reads both
// without a load beyond the header. The two counts sit beside the
// prefix's signature and score columns, so a scan of a block that
// has neither dead nor tail entries reads one line of its header.
type block struct {
	ndead, ntail int32                 // dead prefix entries; tail entries (len(tail.nodes))
	cols                               // the sorted prefix
	max          []float64             // max[d] = largest availability in dimension d over the live entries, tail included
	dead         [blockCap / 64]uint64 // bit i set: prefix entry i has left
	tail         cols                  // entries that entered since the prefix was written, ascending; empty while none has
}

// isDead reports whether prefix entry i has left. Only a patched block
// has dead entries; the guard also keeps the bitmap out of reach of the
// oversized runs a rewrite merges before splitting them.
func (b *block) isDead(i int) bool { return b.ndead > 0 && b.dead[i>>6]&(1<<(i&63)) != 0 }

// live returns how many entries the block holds that have not left.
func (b *block) live() int { return len(b.nodes) - int(b.ndead) + int(b.ntail) }

// lowest is the block's first score: of its prefix, or of its tail
// when an entry below every key entered the first block.
func (b *block) lowest() float64 {
	if b.ntail > 0 {
		return min(b.score[0], b.tail.score[0])
	}
	return b.score[0]
}

// fits reports whether b can stand in the sequence as it is: a prefix
// to route by, no more than patchCap dead and tail entries, and at
// least minFill live ones unless it is the last.
func (b *block) fits(last bool) bool {
	n := b.live()
	return len(b.nodes) > 0 && len(b.nodes) <= blockCap && b.ndead+b.ntail <= patchCap &&
		(n >= minFill || last && n > 0)
}

// spans appends to run, in sequence order, spans covering b's live
// entries — its prefix minus the dead, merged with its tail — and
// returns run and n plus how many entries they hold.
func (b *block) spans(run []span, n int) ([]span, int) {
	add := func(c *cols, lo, hi int) {
		if lo < hi {
			run, n = append(run, span{c, int32(lo), int32(hi)}), n+hi-lo
		}
	}
	p, t := &b.cols, &b.tail
	lo, j := 0, 0 // the prefix run not yet added starts at lo; the tail's at j
	for i := range b.nodes {
		hi := j // the tail entries sorting before prefix entry i
		for hi < len(t.nodes) && t.key(hi).cmp(b.key(i)) < 0 {
			hi++
		}
		if dead := b.isDead(i); dead || hi > j {
			add(p, lo, i)
			add(t, j, hi)
			if lo, j = i, hi; dead {
				lo++
			}
		}
	}
	add(p, lo, len(b.nodes))
	add(t, j, len(t.nodes))
	return run, n
}

// key orders the blocks: by score, then node.
type key struct {
	score float64
	node  overlay.NodeID
}

func (k key) cmp(o key) int {
	if k.score != o.score { // scores are never NaN
		if k.score < o.score {
			return -1
		}
		return 1
	}
	return cmp.Compare(k.node, o.node)
}

// span names entries [lo, hi) of existing columns, to be copied into a
// block being written.
type span struct {
	c      *cols
	lo, hi int32
}

// op is one change to the blocks: the entry at key leaves (at < 0), or
// the record recs[at] of the input, whose key it is, joins.
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
	first  []float64 // first[b] = blocks[b].lowest()
	reach  []float64 // row-major: reach[b*dims+d] = max of dimension d over blocks b..
	nodes  *table    // the chain's node table; this version's only while it owns it
	n      int

	// The blocks the Update that derived this version patched, and the
	// predecessor blocks it rewrote (0 for a Build).
	patched, rewritten int

	inv  Scale
	dims int

	recsOnce sync.Once // Records' one materialisation
	recs     []proto.Record
}

// Build indexes recs (ascending by node id) against the cmax scale.
// Everything is copied into the index's blocks; recs is not retained.
func Build(recs []proto.Record, cmax vector.Vec) *Flat {
	f := &Flat{inv: NewScale(cmax), dims: cmax.Dim()}
	// What is sorted is a (score, node, position in recs) triple per
	// record, not the records; the blocks are then written in one run.
	n := len(recs)
	order := make([]op, n)
	for i := range recs {
		order[i] = op{key{f.inv.Score(recs[i].Avail), recs[i].Node}, int32(i)}
	}
	slices.SortFunc(order, func(a, b op) int { return a.cmp(b.key) })
	stage := f.newBlock(n)
	for at, o := range order {
		f.put(&stage.cols, at, &recs[o.at], o.score)
	}
	f.blocks = f.emit(nil, []span{{&stage.cols, 0, int32(n)}}, n)
	f.n, f.first, f.reach, f.nodes = n, f.firsts(), f.reaches(), f.newTable()
	return f
}

// Update derives the next version from f. dirty holds (as keys — the
// values are ignored) every node whose record changed, appeared, or
// disappeared since f was built; recs holds at least every surviving
// dirty node, ascending by node id — a dirty node absent from recs has
// left, records of other nodes are ignored. Only the blocks a dirty
// node leaves or enters are written, most of them as patches; see the
// package comment for the cost, and for the node table, which Update
// hands on when f owns it and rebuilds, forking, when it does not.
func (f *Flat) Update(recs []proto.Record, dirty map[overlay.NodeID]bool) *Flat {
	nf := &Flat{inv: f.inv, dims: f.dims, n: f.n, nodes: f.nodes}
	if !nf.nodes.owner.CompareAndSwap(f, nf) {
		nf.nodes = f.newTable()
		nf.nodes.owner.Store(nf)
	}
	tab := nf.nodes
	var buf [8]op
	ops := buf[:0]
	for id := range dirty {
		if score, ok := tab.get(id); ok {
			ops, nf.n = append(ops, op{key{score, id}, -1}), nf.n-1
			tab.set(id, math.NaN())
		}
		if i, ok := slices.BinarySearchFunc(recs, id, func(r proto.Record, id overlay.NodeID) int { return cmp.Compare(r.Node, id) }); ok {
			score := nf.inv.Score(recs[i].Avail)
			ops, nf.n = append(ops, op{key{score, id}, int32(i)}), nf.n+1
			tab.set(id, score)
		}
	}
	slices.SortFunc(ops, func(a, b op) int { return a.cmp(b.key) })
	blocks, firstMoved, reachMoved := nf.derive(f, ops, recs)
	nf.blocks, nf.first, nf.reach = blocks, f.first, f.reach
	if firstMoved {
		nf.first = nf.firsts()
	}
	if reachMoved {
		nf.reach = nf.reaches()
	}
	return nf
}

// table is a chain's node table: score[id] is node id's score in the
// version that owns it, NaN for a node that version does not index.
// Only the Update that claims it from its owner writes it.
type table struct {
	owner atomic.Pointer[Flat]
	score []float64
}

// newTable returns a node table, owned by f, of f's live entries.
func (f *Flat) newTable() *table {
	top := overlay.NodeID(-1)
	f.each(func(c *cols, i int, _ int32) { top = max(top, c.nodes[i]) })
	t := &table{score: make([]float64, top+1)}
	for i := range t.score {
		t.score[i] = math.NaN()
	}
	f.each(func(c *cols, i int, _ int32) { t.score[c.nodes[i]] = c.score[i] })
	t.owner.Store(f)
	return t
}

// get returns node id's score, and whether it is indexed.
func (t *table) get(id overlay.NodeID) (float64, bool) {
	if int(id) < len(t.score) && !math.IsNaN(t.score[id]) {
		return t.score[id], true
	}
	return 0, false
}

// set records node id's score, growing the table to reach it.
func (t *table) set(id overlay.NodeID, score float64) {
	for int(id) >= len(t.score) {
		t.score = append(t.score, math.NaN())
	}
	t.score[id] = score
}

// Churn reports how the Update that derived f wrote its blocks: how
// many it patched and how many of its predecessor's it rewrote (both 0
// for a Build).
func (f *Flat) Churn() (patched, rewritten int) { return f.patched, f.rewritten }

// put writes r, whose score is score, as entry i of c.
func (f *Flat) put(c *cols, i int, r *proto.Record, score float64) {
	c.nodes[i], c.score[i], c.sig[i] = r.Node, score, f.signature(r.Avail, true)
	copy(c.vals[i*f.dims:(i+1)*f.dims], r.Avail)
}

// move copies entry i of src as entry at of dst.
func (f *Flat) move(dst *cols, at int, src *cols, i int) {
	dst.nodes[at], dst.score[at], dst.sig[at] = src.nodes[i], src.score[i], src.sig[i]
	copy(dst.vals[at*f.dims:(at+1)*f.dims], src.vals[i*f.dims:(i+1)*f.dims])
}

// derive writes the next block sequence from prev's and ops, sorted by
// key (a leaving key is present; a joining one is not, unless it also
// leaves). It finds each touched block by binary search and shares
// every other one. A touched block is patched; when the patch does not
// fit, it is rewritten instead, and while what has been rewritten is
// under carryFill the next block is taken in too, so only the last
// block may hold fewer than minFill. firstMoved and reachMoved report
// whether the first-score and reach directories are stale.
func (f *Flat) derive(prev *Flat, ops []op, recs []proto.Record) (out []*block, firstMoved, reachMoved bool) {
	seq := prev.blocks
	if len(ops) == 0 {
		return seq, false, false
	}
	if len(seq) == 0 {
		seq = []*block{{}} // an empty block for the joins to land in
	}
	out = make([]*block, 0, len(seq)+2)
	run, n := make([]span, 0, 8), 0 // spans being rewritten (stack-sized for a small batch), their entries
	bi := 0
	for len(ops) > 0 || n > 0 {
		if n == 0 {
			to := prev.route(ops[0].key)
			out, bi = append(out, seq[bi:to]...), to
		} else if bi == len(seq) {
			break
		}
		b, mine, moved := seq[bi], len(ops), false // mine: the ops sorting before the next block's first key
		if bi+1 < len(seq) {
			next := seq[bi+1].key(0)
			for mine = 0; mine < len(ops) && ops[mine].cmp(next) < 0; mine++ {
			}
		}
		if mine > 0 {
			b, moved = f.patch(b, ops[:mine], recs)
			ops = ops[mine:]
		}
		if n == 0 && b.fits(bi+1 == len(seq)) {
			out = append(out, b)
			f.patched++
			firstMoved = firstMoved || b.lowest() != prev.first[bi]
			reachMoved = reachMoved || moved && prev.reachMoves(b, bi)
		} else {
			if run, n = b.spans(run, n); len(seq[bi].nodes) > 0 {
				f.rewritten++
			}
			if n >= carryFill {
				out, run, n = f.emit(out, run, n), run[:0], 0
			}
			firstMoved, reachMoved = true, true
		}
		bi++
	}
	if n > 0 {
		out = f.emit(out, run, n)
	}
	return append(out, seq[bi:]...), firstMoved, reachMoved
}

// reachMoves reports whether b, standing in for block bi of f, changes
// that block's row of the reach directory, the later rows as they are.
// Each row is its block's maximum folded into the next row, so when no
// patched block changes its own row, no row changes.
func (f *Flat) reachMoves(b *block, bi int) bool {
	row := f.reach[bi*f.dims : (bi+1)*f.dims]
	for d, m := range b.max {
		if bi+1 < len(f.blocks) {
			m = max(m, f.reach[(bi+1)*f.dims+d])
		}
		if m != row[d] {
			return true
		}
	}
	return false
}

// route returns the block a key belongs to: the last one whose first
// prefix key is at or below it, or block 0. It binary-searches the
// first-score directory, reading a block only on a tie; past block 0,
// a block's first score is its prefix's.
func (f *Flat) route(k key) int {
	return sort.Search(len(f.blocks)-1, func(i int) bool {
		if f.first[i+1] != k.score {
			return f.first[i+1] > k.score
		}
		return f.blocks[i+1].key(0).cmp(k) > 0
	})
}

// patch returns b with ops — all of which fall into it — applied as a
// patch: a new header, a leaving prefix entry's dead bit set in its
// copy of the bitmap, a leaving tail entry dropped and the entering
// entries, written from recs, merged into new tail columns. The
// maximum is raised for an entering row and recomputed when a leaving
// row held it; moved reports that it changed. b is not modified.
func (f *Flat) patch(b *block, ops []op, recs []proto.Record) (nb *block, moved bool) {
	nb = new(block)
	*nb = *b
	t, nt := &b.tail, int(b.ntail)
	size, rescan := nt, false
	for _, o := range ops {
		if o.at >= 0 {
			size++
			continue
		}
		i, ok := b.find(o.key)
		if !ok || b.isDead(i) {
			if _, ok := t.find(o.key); !ok {
				panic(fmt.Sprintf("index: node %d leaves at score %v, which its block does not hold: the node table is out of step with the blocks", o.node, o.score))
			}
			size-- // the entry leaves the tail
			continue
		}
		nb.dead[i>>6] |= 1 << (i & 63)
		nb.ndead++
		rescan = rescan || holdsMax(b.max, f.row(&b.cols, i))
	}
	if len(ops) > int(nb.ndead-b.ndead) { // some op enters or leaves the tail
		tail := &nb.tail
		f.alloc(tail, size, 0)
		nb.ntail = int32(size)
		at, j := 0, 0
		for _, o := range ops {
			for ; j < nt && t.key(j).cmp(o.key) < 0; j, at = j+1, at+1 {
				f.move(tail, at, t, j)
			}
			if o.at >= 0 {
				f.put(tail, at, &recs[o.at], o.score)
				at++
			} else if j < nt && t.key(j) == o.key {
				rescan = rescan || holdsMax(b.max, f.row(t, j))
				j++
			}
		}
		for ; j < nt; j, at = j+1, at+1 {
			f.move(tail, at, t, j)
		}
	}
	if len(b.nodes) == 0 { // derive's empty block: rewritten, which sums it up
		return nb, true
	}
	if rescan {
		if m := f.liveMax(nb); !slices.Equal(m, b.max) {
			nb.max = m
			return nb, true
		}
		return nb, false
	}
	for _, o := range ops {
		if o.at < 0 {
			continue
		}
		for d, v := range recs[o.at].Avail {
			if v > nb.max[d] {
				if !moved {
					nb.max, moved = slices.Clone(b.max), true
				}
				nb.max[d] = v
			}
		}
	}
	return nb, moved
}

// holdsMax reports whether row reaches max in some dimension.
func holdsMax(max []float64, row vector.Vec) bool {
	for d, v := range row {
		if v >= max[d] {
			return true
		}
	}
	return false
}

// liveMax computes the per-dimension maximum over b's live entries.
func (f *Flat) liveMax(b *block) []float64 {
	m, seen := make([]float64, f.dims), false
	fold := func(row []float64) {
		if !seen {
			copy(m, row)
			seen = true
			return
		}
		for d, v := range row {
			m[d] = max(m[d], v)
		}
	}
	for i := range b.nodes {
		if !b.isDead(i) {
			fold(f.row(&b.cols, i))
		}
	}
	for j := range b.tail.nodes {
		fold(f.row(&b.tail, j))
	}
	return m
}

// emit appends the n entries of run to out as evenly filled blocks of
// at most blockCap entries.
func (f *Flat) emit(out []*block, run []span, n int) []*block {
	for pieces := (n + blockCap - 1) / blockCap; pieces > 0; pieces-- {
		size := (n + pieces - 1) / pieces
		b := f.newBlock(size)
		for at := 0; at < size; {
			s := &run[0]
			take := min(int(s.hi-s.lo), size-at)
			lo, hi := int(s.lo), int(s.lo)+take
			copy(b.nodes[at:], s.c.nodes[lo:hi])
			copy(b.score[at:], s.c.score[lo:hi])
			copy(b.sig[at:], s.c.sig[lo:hi])
			copy(b.vals[at*f.dims:], s.c.vals[lo*f.dims:hi*f.dims])
			if at, s.lo = at+take, s.lo+int32(take); s.lo == s.hi {
				run = run[1:]
			}
		}
		f.summarize(b)
		out, n = append(out, b), n-size
	}
	return out
}

// newBlock allocates an n-entry block.
func (f *Flat) newBlock(n int) *block {
	b := new(block)
	b.max = f.alloc(&b.cols, n, f.dims)
	return b
}

// alloc gives c n entries — one allocation per element type, whatever
// the number of columns — and returns extra floats from the same
// allocation (a block's maximum).
func (f *Flat) alloc(c *cols, n int, extra int) []float64 {
	c.nodes = make([]overlay.NodeID, n)
	w := n * f.dims
	floats := make([]float64, n+w+extra)
	c.score, c.vals = floats[:n:n], floats[n:n+w:n+w]
	c.sig = make([]uint64, n)
	return floats[n+w:]
}

// summarize derives a filled block's per-dimension maximum.
func (f *Flat) summarize(b *block) {
	copy(b.max, b.vals)
	for i := 1; i < len(b.nodes); i++ {
		for d, v := range b.vals[i*f.dims : (i+1)*f.dims] {
			b.max[d] = max(b.max[d], v)
		}
	}
}

// firsts derives the first-score directory over f.blocks.
func (f *Flat) firsts() []float64 {
	first := make([]float64, len(f.blocks))
	for bi, b := range f.blocks {
		first[bi] = b.lowest()
	}
	return first
}

// reaches derives the reach directory over f.blocks.
func (f *Flat) reaches() []float64 {
	nb, dims := len(f.blocks), f.dims
	all := make([]float64, nb*dims)
	for bi := nb - 1; bi >= 0; bi-- {
		reach := all[bi*dims : (bi+1)*dims]
		copy(reach, f.blocks[bi].max)
		if bi+1 < nb {
			for d, later := range all[(bi+1)*dims : (bi+2)*dims] {
				reach[d] = max(reach[d], later)
			}
		}
	}
	return all
}

// Scale is what an index built against cmax scores by: 1/cmax[d], 0
// for an unscored dimension.
type Scale []float64

// Scale returns the scale f scores by.
func (f *Flat) Scale() Scale { return f.inv }

// NewScale returns the scale of an index built against cmax.
func NewScale(cmax vector.Vec) Scale {
	s := make(Scale, cmax.Dim())
	for d, c := range cmax {
		if c > 0 {
			s[d] = 1 / c
		}
	}
	return s
}

// Score computes Σ_d avail[d]*s[d] over the scored dimensions — the
// same terms, accumulated in the same order, as the D a Search
// computes from its demand, so score >= D is exact for any dominating
// record. It is what a record is ordered by and what a Bound keeps.
func (s Scale) Score(avail vector.Vec) float64 {
	sum := 0.0
	for d, inv := range s {
		if inv > 0 {
			sum += avail[d] * inv
		}
	}
	return sum
}

// Len returns the number of indexed records.
func (f *Flat) Len() int { return f.n }

// Nodes appends every indexed node id to dst, ascending: the ids of
// the live entries, collected block by block and sorted.
func (f *Flat) Nodes(dst []overlay.NodeID) []overlay.NodeID {
	at := len(dst)
	f.each(func(c *cols, i int, _ int32) { dst = append(dst, c.nodes[i]) })
	slices.Sort(dst[at:])
	return dst
}

// each calls fn for every live entry, block by block: entry i of c,
// reported as position e.
func (f *Flat) each(fn func(c *cols, i int, e int32)) {
	for bi, b := range f.blocks {
		for i := range b.nodes {
			if !b.isDead(i) {
				fn(&b.cols, i, int32(bi<<posShift|i))
			}
		}
		for j := range b.tail.nodes {
			fn(&b.tail, j, int32(bi<<posShift|blockCap|j))
		}
	}
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
// Avail a read-only view of its index row and none ever expiring
// (Expires is the largest sim.Time; Stored is not kept). The slice is
// built on the first call and shared by every later one; it must not
// be mutated.
func (f *Flat) Records() []proto.Record {
	f.recsOnce.Do(func() {
		// Sort (node, entry) pairs packed into one word each — ids are
		// never negative — then resolve the entries in that order.
		order := make([]uint64, 0, f.n)
		f.each(func(c *cols, i int, e int32) { order = append(order, uint64(c.nodes[i])<<32|uint64(e)) })
		slices.Sort(order)
		f.recs = make([]proto.Record, len(order))
		for at, o := range order {
			c, i := f.entry(int32(uint32(o)))
			f.recs[at] = proto.Record{Node: c.nodes[i], Avail: f.row(c, i), Expires: never}
		}
	})
	return f.recs
}

// entry resolves a reported position to its columns — a block's
// prefix or its tail — and its place there.
func (f *Flat) entry(e int32) (*cols, int) {
	b, i := f.blocks[e>>posShift], int(e&(2*blockCap-1))
	if i >= blockCap {
		return &b.tail, i - blockCap
	}
	return &b.cols, i
}

// NodeAt returns the node id of the entry a Search returned.
func (f *Flat) NodeAt(entry int32) overlay.NodeID {
	c, i := f.entry(entry)
	return c.nodes[i]
}

// Row returns the availability vector of the entry a Search returned —
// a read-only view into the index's packed matrix, value-identical to
// the indexed record's Avail.
func (f *Flat) Row(entry int32) vector.Vec {
	return f.row(f.entry(entry))
}

// row is capped so an append cannot spill into the neighboring row.
func (f *Flat) row(c *cols, i int) vector.Vec {
	a := i * f.dims
	return vector.Vec(c.vals[a : a+f.dims : a+f.dims])
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
// With a corner it keeps only the scores of matches dominating the
// corner too: the query cache's fill scans at a cell's lower corner and
// stops on its upper one.
type Bound struct {
	k, n   int
	heap   []float64 // heap[:n] holds the kept scores, a max-heap
	cut    float64
	corner vector.Vec
}

// NewBound returns the bound of a k-best query, corner nil but for a
// cache fill. The kept scores live in scratch (all of it: its contents
// are overwritten) while they fit.
func NewBound(k int, corner vector.Vec, scratch []float64) Bound {
	return Bound{k: k, heap: scratch, cut: math.Inf(1), corner: corner}
}

// Kth returns the k-th smallest score the bound keeps; ok is false while
// it keeps fewer than k.
func (b *Bound) Kth() (kth float64, ok bool) {
	if b.k <= 0 || b.n < b.k {
		return math.Inf(1), false
	}
	return b.heap[0], true
}

// Cutoff is the score past which no record can rank with a k-th match
// of score kth, whatever demand the two dominate: kth plus the tie
// slack.
func Cutoff(kth float64) float64 { return kth + tieSlack }

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
	b.cut = Cutoff(h[0])
	return true
}

// counts reports whether the bound keeps the score of a match whose
// availability is row.
func (b *Bound) counts(row []float64) bool {
	for d, w := range b.corner {
		if row[d] < w {
			return false
		}
	}
	return true
}

// Cursor is a resumable ascending scan of one version for one demand.
// Seek makes one; Step advances it a block at a time until Done. It
// fits in 56 bytes, which the engine copies once per shard and query.
type Cursor struct {
	f      *Flat
	demand vector.Vec
	sig    uint64  // the demand's signature
	bi, lo int32   // the next entry to visit: prefix entry lo of blocks[bi] (then its tail); bi == len(blocks) once retired
	next   float64 // a lower bound on its score and on every score the cursor can still report
}

// Seek returns a cursor at the first entry of f whose score allows it
// to dominate demand.
func (f *Flat) Seek(demand vector.Vec) Cursor {
	c := Cursor{f: f, demand: demand, bi: int32(len(f.blocks))}
	if len(f.blocks) == 0 {
		return c
	}
	c.sig = f.signature(demand, false)
	D := f.inv.Score(demand)
	// The first entry with score >= D is in the block before the first
	// one that starts at or past D, or is that block's first entry.
	bi := max(below(f.first, D)-1, 0)
	b := f.blocks[bi]
	lo := below(b.score, D)
	if lo == len(b.score) && (b.ntail == 0 || b.tail.score[b.ntail-1] < D) {
		bi, lo = bi+1, 0
	}
	if c.enter(bi, lo); lo > 0 && !c.Done() {
		// Entered part-way: the lower of the prefix entry and the first
		// tail entry at or past D.
		if c.next = math.Inf(1); lo < len(b.score) {
			c.next = b.score[lo]
		}
		if b.ntail > 0 {
			if j := below(b.tail.score, D); j < int(b.ntail) {
				c.next = min(c.next, b.tail.score[j])
			}
		}
	}
	return c
}

// enter moves the cursor to entry lo of block bi, or retires it: when
// there is no such block, or when some dimension of the demand is
// reached neither by that block nor by any later one.
func (c *Cursor) enter(bi, lo int) {
	f := c.f
	if c.bi = int32(len(f.blocks)); bi >= len(f.blocks) {
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
	c.bi, c.lo, c.next = int32(bi), int32(lo), f.first[bi]
}

// Done reports whether the cursor has retired: nothing it has not
// visited can be among the matches its query wants.
func (c *Cursor) Done() bool { return int(c.bi) == len(c.f.blocks) }

// Next returns the score of the next entry the cursor would visit, a
// lower bound on every score it has yet to report. Meaningful only
// while the cursor is not Done.
func (c *Cursor) Next() float64 { return c.next }

// Step scans the rest of the cursor's current block, as far as
// bound's cutoff: it appends to dst every live entry dominating the
// demand (opaque positions: resolve them with NodeAt/Row on the
// cursor's version), offers each one's score to bound, and moves to the
// next block or retires. The second result is how many entries it
// visited, dead ones included. Stepping a cursor that is Done does
// nothing.
func (c *Cursor) Step(dst []int32, bound *Bound) ([]int32, int) {
	if c.Done() {
		return dst, 0
	}
	f, bi, lo, next := c.f, int(c.bi), int(c.lo), c.next
	if next > bound.cut {
		c.bi = int32(len(f.blocks))
		return dst, 0
	}
	b := f.blocks[bi]
	// past is where the cutoff falls in the prefix: found by binary
	// search, here and whenever a match moves it, not by comparing a
	// score per entry — and not at all while the next block starts
	// under the cutoff. A dead bit is read only for an entry whose
	// signature passes.
	cuts := bi+1 == len(f.blocks) || f.first[bi+1] > bound.cut
	past := len(b.score)
	if cuts {
		past = lo + within(b.score[lo:], bound.cut)
	}
	for i := lo; ; i++ {
		if i += passing(b.sig[i:past], c.sig); i == past {
			break
		}
		if b.isDead(i) || !c.match(&b.cols, i) {
			continue
		}
		dst = append(dst, int32(bi<<posShift|i))
		if bound.counts(f.row(&b.cols, i)) && bound.offer(b.score[i]) && b.score[past-1] > bound.cut {
			past = i + 1 + within(b.score[i+1:past], bound.cut)
		}
	}
	// The next block starts at or above every score of this one, so
	// the cutoff falling inside it makes the rest of the scan hopeless.
	visited, hopeless := past-lo, past < len(b.score)
	if t := &b.tail; b.ntail > 0 {
		// A tail is at most patchCap entries: every signature is
		// compared, and only an entry that passes has its score held to
		// the cutoff (one under D, in Seek's block, fails the exact test).
		for j := 0; ; j++ {
			if j += passing(t.sig[j:], c.sig); j == len(t.sig) {
				break
			}
			if t.score[j] > bound.cut || !c.match(t, j) {
				continue
			}
			if dst = append(dst, int32(bi<<posShift|blockCap|j)); bound.counts(f.row(t, j)) {
				bound.offer(t.score[j])
			}
		}
		visited += len(t.sig)
		hopeless = hopeless || cuts && t.score[len(t.score)-1] > bound.cut
	}
	if hopeless {
		c.bi = int32(len(f.blocks))
	} else {
		c.enter(bi+1, 0)
	}
	return dst, visited
}

// match runs the exact dominance test on entry i of p, a block's
// prefix or its tail, whose signature passed.
func (c *Cursor) match(p *cols, i int) bool {
	row := p.vals[i*c.f.dims : (i+1)*c.f.dims]
	for d, w := range c.demand {
		if row[d] < w {
			return false
		}
	}
	return true
}

// passes reports whether an entry's signature passes the demand
// signature want: every lane >= want's.
func passes(sig, want uint64) bool { return ((sig|lanes)-want)&lanes == lanes }

// passing returns the position of the first of sigs that passes the
// demand signature want — every lane >= want's — or len(sigs). It is
// the scan: every signature compare of a Step goes through it. Where
// the CPU has AVX2 (useAVX2, set once at start) it runs passingAVX2,
// 16 entries to a branch; anywhere else passingGeneric. The one call
// through a function value keeps it within the inliner's budget, which
// two direct calls exceed.
func passing(sigs []uint64, want uint64) int {
	kernel := passingGeneric
	if useAVX2 {
		kernel = passingAVX2
	}
	return kernel(sigs, want)
}

// passingGeneric is passing in Go: one word read and one compare per
// rejected entry, four entries to a branch (a one-entry loop ran up to
// 15% slower or faster with where the linker happened to place it).
// Kept out of line because inlined into Step it loses its registers to
// the code around it (measured: 15-25% of a search).
//
//go:noinline
func passingGeneric(sigs []uint64, want uint64) int {
	i := 0
	for ; i+4 <= len(sigs); i += 4 {
		s := sigs[i : i+4 : i+4]
		a, b := ((s[0]|lanes)-want)&lanes, ((s[1]|lanes)-want)&lanes
		c, d := ((s[2]|lanes)-want)&lanes, ((s[3]|lanes)-want)&lanes
		if a == lanes || b == lanes || c == lanes || d == lanes {
			break
		}
	}
	for ; i < len(sigs); i++ {
		if passes(sigs[i], want) {
			return i
		}
	}
	return len(sigs)
}

// within returns how many of the ascending scores are <= cut, and below
// how many are < x. They are the read path's binary searches, written
// out rather than through sort.Search's closure.
func within(scores []float64, cut float64) int {
	lo, hi := 0, len(scores)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); scores[m] > cut {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

func below(scores []float64, x float64) int {
	lo, hi := 0, len(scores)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); scores[m] >= x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// Search appends to dst the entries (opaque positions: resolve them
// with NodeAt/Row on this version) of every record needed to rank the
// k smallest-surplus records dominating demand: the first k
// matches in score order plus any further match within tieSlack of
// the k-th score (so a caller re-ranking by exact surplus can never
// be missing a true top-k member). k <= 0 returns every match. The
// second result is how many entries the scan visited — the
// sub-linearity measurement the engine aggregates. It is the
// one-cursor scan; the serving engine steps one cursor per shard
// against one Bound.
func (f *Flat) Search(dst []int32, demand vector.Vec, k int) ([]int32, int) {
	var scratch [8]float64
	bound := NewBound(k, nil, scratch[:])
	visited := 0
	for c := f.Seek(demand); !c.Done(); {
		var n int
		dst, n = c.Step(dst, &bound)
		visited += n
	}
	return dst, visited
}
