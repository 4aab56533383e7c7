// Package index implements the flat, immutable multi-dimensional
// dominance index behind the serving engine's snapshot read path.
//
// The structure exploits one algebraic fact about the paper's
// best-fit ranking: the normalized surplus of a record r against a
// demand w, Σ_k (r.Avail[k]-w[k])/cmax[k], separates into
// score(r) - D where score(r) = Σ_k r.Avail[k]/cmax[k] depends only
// on the record and D = Σ_k w[k]/cmax[k] only on the demand. Best-fit
// order is therefore a single demand-independent total order over the
// records — ascending score — computed once per snapshot publication
// instead of once per query.
//
// A Flat index holds the snapshot's records sorted by (score, node):
// a structure-of-arrays layout with the per-entry score array (binary
// searched), a row-major packed availability matrix (scanned for the
// dominance test without touching the record structs), the per-entry
// expiry array, and per-dimension suffix-max arrays over the sorted
// order (consulted every pruneEvery non-matching entries: once no
// later entry can dominate some dimension of the demand, the scan
// stops early).
//
// A query for the k best records dominating demand then:
//
//  1. binary-searches the score array for the first entry with
//     score >= D — a necessary condition for dominance, and exact in
//     floating point because score and D are accumulated with the
//     same per-dimension multiplications in the same order;
//  2. scans ascending, keeping unexpired entries whose availability
//     row dominates the demand — the first k such entries are the k
//     smallest-surplus matches, so the scan stops as soon as the
//     score passes the k-th match's score (plus a tie slack that
//     keeps near-equal-score entries in play: the caller re-ranks by
//     the exactly-computed surplus, so rounding between score
//     subtraction and the reference Σ(a-w)/c summation can never
//     change the reported candidate set).
//
// Rebuilds amortize against the engine's batched write drain: Update
// merges the previous sorted order (minus the batch's dirty nodes)
// with the freshly scored dirty entries in O(n + b·log b) — no
// O(n log n) re-sort — and a publication that changed nothing reuses
// the previous index outright.
package index

import (
	"math"
	"sort"

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

// Flat is the immutable per-snapshot dominance index. Build it with
// Build or derive it from a predecessor with Update; never mutate it
// afterwards — concurrent readers Search it lock-free.
type Flat struct {
	// Sorted-order arrays, one entry per record, ascending
	// (score, node).
	nodes   []overlay.NodeID
	score   []float64
	expires []sim.Time
	vals    []float64 // row-major: entry i's availability at vals[i*dims : (i+1)*dims]
	sufMax  []float64 // column-major: sufMax[d*n+i] = max of vals[j*dims+d] for j >= i

	inv    []float64 // 1/cmax[d] for cmax[d] > 0, else 0 (dimension unscored)
	dims   int
	expiry bool // any entry with a finite expiry (skip the check otherwise)
}

// Build indexes recs (ascending by node id, as snapshots publish
// them) against the cmax scale. Availability is copied into the
// index's packed matrix; recs is not retained.
func Build(recs []proto.Record, cmax vector.Vec) *Flat {
	n := len(recs)
	inv := make([]float64, cmax.Dim())
	for d, c := range cmax {
		if c > 0 {
			inv[d] = 1 / c
		}
	}
	f := newFlat(n, inv)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	scores := make([]float64, n)
	for i := range recs {
		scores[i] = f.scoreOf(recs[i].Avail)
	}
	sort.Slice(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if scores[i] != scores[j] {
			return scores[i] < scores[j]
		}
		return recs[i].Node < recs[j].Node
	})
	for i, p := range order {
		f.setEntry(i, &recs[p], scores[p])
	}
	f.finish()
	return f
}

// Update derives the index for recs from its predecessor f: entries
// of untouched nodes keep their scored rows (merged in previous
// sorted order), only the dirty nodes are re-scored and re-sorted.
// dirty holds (as keys — the values are ignored) every node whose
// record changed, appeared, or disappeared since f was built; recs
// must already reflect those changes. Cost is O(n·d + b·log b) for b
// dirty nodes.
func (f *Flat) Update(recs []proto.Record, dirty map[overlay.NodeID]bool) *Flat {
	nf := newFlat(len(recs), f.inv)
	// Score the dirty survivors (recs is ascending by node, so the
	// fresh entries come out pre-sorted by node — the tie-break —
	// and only need sorting by score).
	type fresh struct {
		rec   *proto.Record
		score float64
	}
	var add []fresh
	for i := range recs {
		if _, touched := dirty[recs[i].Node]; touched {
			add = append(add, fresh{rec: &recs[i], score: nf.scoreOf(recs[i].Avail)})
		}
	}
	sort.SliceStable(add, func(a, b int) bool { return add[a].score < add[b].score })
	// Merge: previous order minus dirty nodes, interleaved with the
	// fresh entries by (score, node).
	out, j := 0, 0
	for i := 0; i < len(f.nodes); i++ {
		if _, touched := dirty[f.nodes[i]]; touched {
			continue
		}
		for j < len(add) && (add[j].score < f.score[i] ||
			(add[j].score == f.score[i] && add[j].rec.Node < f.nodes[i])) {
			nf.setEntry(out, add[j].rec, add[j].score)
			out++
			j++
		}
		nf.copyEntry(out, f, i)
		out++
	}
	for ; j < len(add); j++ {
		nf.setEntry(out, add[j].rec, add[j].score)
		out++
	}
	nf.finish()
	return nf
}

// newFlat allocates an n-entry index over the inv scale (shared, never
// mutated); the caller fills every entry, then calls finish.
func newFlat(n int, inv []float64) *Flat {
	return &Flat{
		nodes:   make([]overlay.NodeID, n),
		score:   make([]float64, n),
		expires: make([]sim.Time, n),
		vals:    make([]float64, n*len(inv)),
		inv:     inv,
		dims:    len(inv),
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

func (f *Flat) setEntry(i int, r *proto.Record, score float64) {
	f.nodes[i] = r.Node
	f.score[i] = score
	f.expires[i] = r.Expires
	copy(f.vals[i*f.dims:(i+1)*f.dims], r.Avail)
}

func (f *Flat) copyEntry(i int, src *Flat, j int) {
	f.nodes[i] = src.nodes[j]
	f.score[i] = src.score[j]
	f.expires[i] = src.expires[j]
	copy(f.vals[i*f.dims:(i+1)*f.dims], src.vals[j*src.dims:(j+1)*src.dims])
}

// finish derives the suffix-max pruning arrays and the expiry flag.
func (f *Flat) finish() {
	n := len(f.nodes)
	f.sufMax = make([]float64, f.dims*n)
	for d := 0; d < f.dims; d++ {
		col := f.sufMax[d*n : (d+1)*n]
		m := math.Inf(-1)
		for i := n - 1; i >= 0; i-- {
			if v := f.vals[i*f.dims+d]; v > m {
				m = v
			}
			col[i] = m
		}
	}
	const never = sim.Time(1<<63 - 1)
	for _, e := range f.expires {
		if e != never {
			f.expiry = true
			break
		}
	}
}

// Len returns the number of indexed records.
func (f *Flat) Len() int { return len(f.nodes) }

// NodeAt returns the node id of the sorted-order entry a Search
// returned.
func (f *Flat) NodeAt(entry int32) overlay.NodeID { return f.nodes[entry] }

// Row returns the availability vector of the sorted-order entry — a
// read-only view into the index's packed matrix, value-identical to
// the indexed record's Avail (capped so an append cannot spill into
// the neighboring row).
func (f *Flat) Row(entry int32) vector.Vec {
	a := int(entry) * f.dims
	return vector.Vec(f.vals[a : a+f.dims : a+f.dims])
}

// Search appends to dst the sorted-order entry positions (resolve
// them with NodeAt/Row) of every record needed to rank the k
// smallest-surplus unexpired records dominating demand: the first k
// matches in score order plus any further match within tieSlack of
// the k-th score (so a caller re-ranking by exact surplus can never
// be missing a true top-k member). k <= 0 returns every match. The
// second result is how many sorted entries the scan visited — the
// sub-linearity measurement the engine aggregates.
func (f *Flat) Search(dst []int32, demand vector.Vec, now sim.Time, k int) ([]int32, int) {
	n := len(f.nodes)
	if n == 0 {
		return dst, 0
	}
	D := f.scoreOf(demand)
	lo := sort.SearchFloat64s(f.score, D)
	found, visited := 0, 0
	cutoff := math.Inf(1)
	misses := 0
	for i := lo; i < n; i++ {
		if f.score[i] > cutoff {
			break
		}
		visited++
		if f.expiry && now >= f.expires[i] {
			continue
		}
		row := f.vals[i*f.dims : (i+1)*f.dims]
		dom := true
		for d, w := range demand {
			if row[d] < w {
				dom = false
				break
			}
		}
		if dom {
			dst = append(dst, int32(i))
			found++
			if k > 0 && found == k {
				cutoff = f.score[i] + tieSlack
			}
			continue
		}
		if misses++; misses >= pruneEvery {
			misses = 0
			for d, w := range demand {
				if f.sufMax[d*n+i] < w {
					return dst, visited
				}
			}
		}
	}
	return dst, visited
}
