package space

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// OwnerID identifies the peer owning a zone. It is an opaque integer
// assigned by the overlay layer.
type OwnerID int32

// NoOwner marks internal tree nodes, which own no zone.
const NoOwner OwnerID = -1

// Tree is the binary partition tree of the CAN space. Leaves are
// zones owned by peers; internal nodes record the split that produced
// their children. The tree supports the three structural operations
// of the overlay:
//
//   - Split: a joining peer picks a random point; the leaf containing
//     it splits in half (split dimension cycles with depth, as in the
//     original CAN), and the joiner takes the half containing the
//     point. SplitAll joins a whole population in one pass that
//     builds the same tree: it deals each subtree the points that
//     land in it, in arrival order, and a leaf's first point splits
//     it. A single Split is its one-point case.
//   - Remove: a departing peer's zone is merged with its sibling leaf
//     if possible; otherwise a "buddy pair" of sibling leaves deepest
//     in the sibling subtree is located, one of the buddies merges
//     into the other, and the freed peer relocates into the vacated
//     zone. This is the paper's binary-partition-tree zone
//     reassignment keeping node↔zone strictly 1:1.
//   - Lookup: point → leaf, neighbor enumeration, range enumeration.
//
// Tree is not safe for concurrent mutation; the simulation engine is
// single-threaded per run.
//
// Memory (see the package comment for the layout): 24 B of node and
// 48 B of zone header per slot, two slots per owner at the
// population's high-water mark, 2·dim float64s of bounds per
// internal node (one object per Split; one array per SplitAll, kept
// while any of its zones lives), and 4 B of leaf index per owner id
// ever used, alive or not.
type Tree struct {
	dim   int
	nodes []treeNode
	zones []Zone  // by slot; internal nodes keep theirs for pruning
	leaf  []int32 // by OwnerID: 1 + the slot of its leaf, 0 for none
	free  int32   // the last released pair's first slot, or -1
	n     int     // owners
}

// treeNode is one slot; the root is slot 0.
type treeNode struct {
	splitAt float64 // internal nodes: the cut
	parent  int32   // -1 at the root; in a released pair, the next one
	child   int32   // internal nodes: the left child (right: child+1); -1 on leaves
	owner   OwnerID // leaves; NoOwner on internal nodes
	dim     int32   // the split dimension: depth mod the tree's dimension
}

// NewTree creates a partition tree over [0,1)^dim whose single zone
// is owned by first.
func NewTree(dim int, first OwnerID) *Tree {
	if dim < 1 || first < 0 {
		panic("space: tree dimension must be >= 1 and its first owner >= 0")
	}
	t := &Tree{dim: dim, nodes: []treeNode{{parent: -1, child: -1}}, zones: []Zone{UnitZone(dim)}, free: -1, n: 1}
	t.setLeaf(first, 0)
	return t
}

// Dim returns the dimensionality of the space.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of zones (= alive owners).
func (t *Tree) Len() int { return t.n }

// Owners returns all owners in ascending order. Intended for tests
// and inspection tools.
func (t *Tree) Owners() []OwnerID {
	out := make([]OwnerID, 0, t.n)
	for id, s := range t.leaf {
		if s != 0 {
			out = append(out, OwnerID(id))
		}
	}
	return out
}

// slot returns the slot of owner's leaf.
func (t *Tree) slot(owner OwnerID) (int32, bool) {
	if owner < 0 || int(owner) >= len(t.leaf) || t.leaf[owner] == 0 {
		return 0, false
	}
	return t.leaf[owner] - 1, true
}

// setLeaf makes leaf slot s owner's.
func (t *Tree) setLeaf(owner OwnerID, s int32) {
	for int(owner) >= len(t.leaf) {
		t.leaf = append(t.leaf, 0)
	}
	t.leaf[owner] = s + 1
	t.nodes[s].owner = owner
}

// Contains reports whether owner currently owns a zone.
func (t *Tree) Contains(owner OwnerID) bool {
	_, ok := t.slot(owner)
	return ok
}

// ZoneOf returns the zone owned by owner.
func (t *Tree) ZoneOf(owner OwnerID) (Zone, bool) {
	s, ok := t.slot(owner)
	if !ok {
		return Zone{}, false
	}
	return t.zones[s], true
}

// leafAt descends to the leaf containing p, reading x in place of
// p[over] (over -1: none). When a coordinate equals a split plane
// exactly, the point belongs to the right (>=) child, matching the
// half-open zone convention — except along dimension over with left
// set, where it goes left: that finds the zone whose upper boundary is
// x, the negative-side neighbor, without epsilon arithmetic.
func (t *Tree) leafAt(p Point, over int, x float64, left bool) int32 {
	nodes, s := t.nodes, int32(0)
	for n := &nodes[0]; n.child >= 0; n = &nodes[s] {
		d := int(n.dim)
		y := p[d]
		if d == over {
			y = x
		}
		s = n.child
		if !(y < n.splitAt) && (y != n.splitAt || !left || d != over) {
			s++
		}
	}
	return s
}

// OwnerAt returns the owner of the zone containing p.
func (t *Tree) OwnerAt(p Point) OwnerID { return t.nodes[t.leafAt(p, -1, 0, false)].owner }

// ErrDuplicateOwner is returned by Split when the joining owner is
// already present in the tree.
var ErrDuplicateOwner = errors.New("space: owner already in tree")

// ErrUnknownOwner is returned by Remove for an absent owner.
var ErrUnknownOwner = errors.New("space: owner not in tree")

// ErrLastOwner is returned by Remove when only one owner remains.
var ErrLastOwner = errors.New("space: cannot remove last owner")

// Split performs a CAN join: the leaf containing p splits in half
// along dimension depth mod d, and joiner takes the half containing
// p while the previous owner keeps the other half. It returns the
// previous owner of the split zone (the joiner's bootstrap contact).
// It does not retain p. It is SplitAll's one-point case.
func (t *Tree) Split(p Point, joiner OwnerID) (prev OwnerID, err error) {
	if t.Contains(joiner) {
		return NoOwner, ErrDuplicateOwner
	}
	if joiner < 0 {
		return NoOwner, fmt.Errorf("space: owner %d is negative", joiner)
	}
	if len(p) != t.dim || !p.InUnitCube() {
		return NoOwner, fmt.Errorf("space: split point %v outside the %d-dimensional unit cube", p, t.dim)
	}
	var one [1]int32
	d := dealer{t: t, coords: p, first: joiner}
	d.deal(0, one[:])
	return d.prev, nil
}

// SplitAll joins len(coords)/Dim() owners first, first+1, … at the
// points coords holds back to back, in that order, building the tree
// those Splits would build in one pass: each subtree is handed the
// points that land in it in arrival order; at a leaf the first one
// splits it and the rest are dealt to its two halves. It reserves the
// tree's room up front and carves every bound the splits allocate
// from one array, which lives as long as any zone shares it. It
// validates every point and joiner first and changes nothing on an
// error. It does not retain coords.
func (t *Tree) SplitAll(coords []float64, first OwnerID) error {
	k := len(coords) / t.dim
	if len(coords) != k*t.dim {
		return fmt.Errorf("space: %d coordinates are not %d-dimensional points", len(coords), t.dim)
	}
	if first < 0 || int64(first)+int64(k)-1 > math.MaxInt32 {
		return fmt.Errorf("space: owners %d..%d out of range", first, int64(first)+int64(k)-1)
	}
	for i := range k {
		if t.Contains(first + OwnerID(i)) {
			return ErrDuplicateOwner
		}
	}
	if !Point(coords).InUnitCube() {
		return fmt.Errorf("space: split point outside unit cube")
	}
	t.nodes = slices.Grow(t.nodes, 2*k)
	t.zones = slices.Grow(t.zones, 2*k)
	t.leaf = slices.Grow(t.leaf, max(0, int(first)+k-len(t.leaf)))
	order := make([]int32, 2*k) // the points in arrival order, then scratch
	for i := range k {
		order[i] = int32(i)
	}
	d := dealer{t: t, coords: coords, first: first, tmp: order[k:k], bounds: make([]float64, 2*t.dim*k)}
	d.deal(0, order[:k])
	return nil
}

// dealer is one Split or SplitAll in progress.
type dealer struct {
	t      *Tree
	coords []float64 // point i is coords[i*dim:(i+1)*dim]
	first  OwnerID   // point i's joiner is first+i
	tmp    []int32   // partition scratch, as long as the longest deal
	bounds []float64 // carved into the bounds each split moves; empty: allocate
	prev   OwnerID   // the previous owner of the last zone split
}

// deal hands the points named by ord, in arrival order, to the
// subtree at slot s. At an internal node they are partitioned, keeping
// their order, as leafAt would route each; at a leaf the first one
// splits it and the rest are dealt on.
func (d *dealer) deal(s int32, ord []int32) {
	t := d.t
	for len(ord) > 0 {
		n := t.nodes[s]
		if n.child < 0 {
			d.split(s, ord[0])
			ord = ord[1:]
			continue
		}
		coords, dim, sd, at := d.coords, t.dim, int(n.dim), n.splitAt
		if len(ord) == 1 {
			s = n.child
			if !(coords[int(ord[0])*dim+sd] < at) {
				s++
			}
			continue
		}
		// A stable partition without a branch on the side, which is a
		// coin toss: each point is written to both lists, and only
		// its own list's end moves past it.
		l, r, right := 0, 0, d.tmp[:len(ord)]
		for _, i := range ord {
			ord[l], right[r] = i, i
			b := 0
			if coords[int(i)*dim+sd] < at {
				b = 1
			}
			l += b
			r += 1 - b
		}
		copy(ord[l:], right[:r])
		switch {
		case l == len(ord):
			s = n.child
		case l == 0:
			s = n.child + 1
		default:
			d.deal(n.child, ord[:l])
			s, ord = n.child+1, ord[l:]
		}
	}
}

// split splits leaf s at point i: its joiner takes the half containing
// the point, and the leaf's owner the other.
func (d *dealer) split(s, i int32) {
	t := d.t
	p := d.coords[int(i)*t.dim:][:t.dim]
	joiner := d.first + OwnerID(i)
	dim, z := int(t.nodes[s].dim), t.zones[s]
	w := 2 * t.dim
	var bounds Point // the two bounds that move, one object
	if len(d.bounds) >= w {
		bounds, d.bounds = d.bounds[:w:w], d.bounds[w:]
	} else {
		bounds = make(Point, w)
	}
	hi, lo := bounds[:t.dim:t.dim], bounds[t.dim:]
	copy(hi, z.Hi)
	copy(lo, z.Lo)
	lower, upper := z.splitInto(dim, hi, lo)

	// The children: a released pair of slots, or two new ones.
	c := t.free
	if c >= 0 {
		t.free = t.nodes[c].parent
	} else {
		c = int32(len(t.nodes))
		t.nodes = append(t.nodes, treeNode{}, treeNode{})
		t.zones = append(t.zones, Zone{}, Zone{})
	}
	leaf := treeNode{parent: s, child: -1, owner: NoOwner, dim: int32(dim+1) % int32(t.dim)}
	t.nodes[c], t.nodes[c+1] = leaf, leaf
	t.zones[c], t.zones[c+1] = lower, upper
	prev := t.nodes[s].owner
	if p[dim] < upper.Lo[dim] {
		t.setLeaf(joiner, c)
		t.setLeaf(prev, c+1)
	} else {
		t.setLeaf(prev, c)
		t.setLeaf(joiner, c+1)
	}
	n := &t.nodes[s]
	n.child, n.splitAt, n.owner = c, upper.Lo[dim], NoOwner
	t.n++
	d.prev = prev
}

// merge releases the children of s, which becomes owner's leaf.
func (t *Tree) merge(s int32, owner OwnerID) {
	c := t.nodes[s].child
	t.nodes[c].parent, t.free = t.free, c
	t.zones[c], t.zones[c+1] = Zone{}, Zone{}
	t.nodes[s].child = -1
	t.setLeaf(owner, s)
}

// Reassignment describes the ownership changes caused by a departure.
// Absorber is the peer whose zone grew by a merge. Mover, when not
// NoOwner, is the peer that was relocated from its old (merged-away)
// zone into the departed zone.
type Reassignment struct {
	Departed OwnerID
	Absorber OwnerID
	Mover    OwnerID
}

// Remove deletes owner from the tree, reassigning zones so that every
// remaining peer still owns exactly one zone:
//
//   - if the departing leaf's sibling is a leaf, the sibling's owner
//     absorbs the merged parent zone (Mover = NoOwner);
//   - otherwise a buddy pair of sibling leaves deepest in the sibling
//     subtree is found; one buddy absorbs their merged parent zone and
//     the other relocates into the departed zone (Mover = relocated
//     peer).
func (t *Tree) Remove(owner OwnerID) (Reassignment, error) {
	s, ok := t.slot(owner)
	if !ok {
		return Reassignment{}, ErrUnknownOwner
	}
	if t.n == 1 {
		return Reassignment{}, ErrLastOwner
	}
	parent := t.nodes[s].parent
	sibling := t.nodes[parent].child
	if sibling == s {
		sibling++
	}
	t.leaf[owner] = 0
	t.n--

	if t.nodes[sibling].child < 0 {
		// Merge: sibling's owner absorbs the whole parent zone.
		absorber := t.nodes[sibling].owner
		t.merge(parent, absorber)
		return Reassignment{Departed: owner, Absorber: absorber, Mover: NoOwner}, nil
	}

	// Find the deepest buddy pair (internal node with two leaf
	// children) inside the sibling subtree, merge it, and relocate
	// one buddy into the departed zone.
	buddyParent := t.deepestBuddyPair(sibling)
	c := t.nodes[buddyParent].child
	absorber, mover := t.nodes[c].owner, t.nodes[c+1].owner
	t.merge(buddyParent, absorber)
	t.setLeaf(mover, s)
	return Reassignment{Departed: owner, Absorber: absorber, Mover: mover}, nil
}

// deepestBuddyPair returns the deepest internal node of the subtree
// rooted at s whose two children are both leaves, the first in
// depth-first order among equals. Every internal subtree has one.
func (t *Tree) deepestBuddyPair(s int32) int32 {
	best, bestDepth := int32(-1), -1
	t.visit(s, 0, func(m int32, depth int) bool {
		c := t.nodes[m].child
		if c < 0 || t.nodes[c].child >= 0 || t.nodes[c+1].child >= 0 {
			return c >= 0
		}
		if depth > bestDepth {
			best, bestDepth = m, depth
		}
		return false
	})
	if best < 0 {
		panic("space: internal subtree without buddy pair (corrupt tree)")
	}
	return best
}

// visit calls fn on slot s, at the given depth, and, for every
// internal node on which fn returns true, on its children, left
// subtree first.
func (t *Tree) visit(s int32, depth int, fn func(s int32, depth int) bool) {
	if fn(s, depth) && t.nodes[s].child >= 0 {
		t.visit(t.nodes[s].child, depth+1, fn)
		t.visit(t.nodes[s].child+1, depth+1, fn)
	}
}

// Neighbors returns the owners of all zones adjacent to owner's zone
// per the CAN adjacency definition, in ascending owner order, with
// the adjacency description for each.
func (t *Tree) Neighbors(owner OwnerID) []Neighbor {
	s, ok := t.slot(owner)
	if !ok {
		return nil
	}
	z := t.zones[s]
	var out []Neighbor
	// Prune subtrees whose closed hull misses z's.
	t.visit(0, 0, func(c int32, _ int) bool {
		if !t.zones[c].ClosureIntersects(z) {
			return false
		}
		if t.nodes[c].child < 0 && c != s {
			if adj, ok := z.AdjacentTo(t.zones[c]); ok {
				out = append(out, Neighbor{Owner: t.nodes[c].owner, Zone: t.zones[c], Adj: adj})
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Owner < out[j].Owner })
	return out
}

// Neighbor is a zone adjacent to some reference zone.
type Neighbor struct {
	Owner OwnerID
	Zone  Zone
	Adj   Adjacency
}

// RangeOwners returns the owners of every zone intersecting the
// closed query range [lo, hi] — the "responsible nodes" (shaded zones
// of Fig. 1) that INSCAN-RQ must visit. Owners are returned in
// ascending order.
func (t *Tree) RangeOwners(lo, hi Point) []OwnerID {
	var out []OwnerID
	t.visit(0, 0, func(s int32, _ int) bool {
		if !t.zones[s].OverlapsRange(lo, hi) {
			return false
		}
		if t.nodes[s].child < 0 {
			out = append(out, t.nodes[s].owner)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AdjacentLeafAcross returns the owner and zone of the leaf just
// across the boundary of z along dimension dim in the given
// direction, at the cross-section fixed by at (only at's coordinates
// in dimensions other than dim matter; at is not written). ok is
// false at the edge of the space. This is the primitive used to walk
// zone sequences along a dimension when building 2^k index links.
func (t *Tree) AdjacentLeafAcross(z Zone, dim int, positive bool, at Point) (OwnerID, Zone, bool) {
	var s int32
	if positive {
		if z.Hi[dim] >= 1 {
			return NoOwner, Zone{}, false
		}
		s = t.leafAt(at, dim, z.Hi[dim], false) // first coordinate of the next zone (half-open)
	} else {
		if z.Lo[dim] <= 0 {
			return NoOwner, Zone{}, false
		}
		s = t.leafAt(at, dim, z.Lo[dim], true)
	}
	return t.nodes[s].owner, t.zones[s], true
}

// Walk visits every leaf in depth-first order.
func (t *Tree) Walk(fn func(owner OwnerID, z Zone)) {
	t.visit(0, 0, func(s int32, _ int) bool {
		if t.nodes[s].child < 0 {
			fn(t.nodes[s].owner, t.zones[s])
		}
		return true
	})
}

// Validate checks the structural invariants of the tree: children
// exactly partition their parent along the recorded split, leaves
// tile the unit cube (total volume 1, pairwise disjoint), the leaf
// index matches the tree, and split dimensions cycle with depth. It returns the
// first violation found. Intended for tests and failure injection.
func (t *Tree) Validate() error {
	if r := t.nodes[0]; r.parent != -1 || r.dim != 0 {
		return fmt.Errorf("root has parent %d, split dimension %d", r.parent, r.dim)
	}
	var err error
	leaves := 0
	t.visit(0, 0, func(s int32, _ int) bool {
		n, z := t.nodes[s], t.zones[s]
		if err != nil {
			return false
		} else if n.child < 0 {
			if got, ok := t.slot(n.owner); !ok || got != s {
				err = fmt.Errorf("leaf %v of owner %d is not in the leaf index", z, n.owner)
			}
			leaves++
			return false
		}
		l, r := t.nodes[n.child], t.nodes[n.child+1]
		lz, rz := t.zones[n.child], t.zones[n.child+1]
		dim := int(n.dim)
		switch {
		case n.owner != NoOwner:
			err = fmt.Errorf("internal node %v has owner %d", z, n.owner)
		case l.parent != s || r.parent != s:
			err = fmt.Errorf("parent links broken at %v", z)
		case l.dim != (n.dim+1)%int32(t.dim) || r.dim != l.dim:
			err = fmt.Errorf("split dimension mismatch at %v", z)
		case n.splitAt != (z.Lo[dim]+z.Hi[dim])/2 || lz.Hi[dim] != n.splitAt || rz.Lo[dim] != n.splitAt:
			err = fmt.Errorf("split plane mismatch at %v", z)
		case !lz.Equal(Zone{Lo: z.Lo, Hi: lz.Hi}) || !rz.Equal(Zone{Lo: rz.Lo, Hi: z.Hi}):
			err = fmt.Errorf("children do not partition parent at %v", z)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if owners := len(t.Owners()); owners != leaves || leaves != t.n {
		return fmt.Errorf("leaf index has %d entries, tree has %d leaves, Len %d", owners, leaves, t.n)
	}
	// Volume check: leaves must tile the unit cube.
	total := 0.0
	t.Walk(func(_ OwnerID, z Zone) { total += z.Volume() })
	if total < 1-1e-9 || total > 1+1e-9 {
		return fmt.Errorf("leaf volumes sum to %v, want 1", total)
	}
	return nil
}

// MaxDepth returns the maximum leaf depth (for balance diagnostics).
func (t *Tree) MaxDepth() int {
	max := 0
	t.visit(0, 0, func(_ int32, depth int) bool {
		if depth > max {
			max = depth
		}
		return true
	})
	return max
}
