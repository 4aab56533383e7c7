package space

import (
	"errors"
	"fmt"
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
//     point.
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
type Tree struct {
	dim    int
	root   *treeNode
	leaves map[OwnerID]*treeNode
}

type treeNode struct {
	zone        Zone
	parent      *treeNode
	left, right *treeNode // nil for leaves
	splitAt     float64   // valid for internal nodes
	splitDim    int32     // valid for internal nodes
	depth       int32
	owner       OwnerID // valid for leaves
}

func (n *treeNode) isLeaf() bool { return n.left == nil }

// NewTree creates a partition tree over [0,1)^dim whose single zone
// is owned by first.
func NewTree(dim int, first OwnerID) *Tree {
	if dim < 1 {
		panic("space: tree dimension must be >= 1")
	}
	root := &treeNode{zone: UnitZone(dim), owner: first}
	return &Tree{
		dim:    dim,
		root:   root,
		leaves: map[OwnerID]*treeNode{first: root},
	}
}

// Dim returns the dimensionality of the space.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of zones (= alive owners).
func (t *Tree) Len() int { return len(t.leaves) }

// Owners returns all owners in ascending order. Intended for tests
// and inspection tools.
func (t *Tree) Owners() []OwnerID {
	out := make([]OwnerID, 0, len(t.leaves))
	for id := range t.leaves {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Contains reports whether owner currently owns a zone.
func (t *Tree) Contains(owner OwnerID) bool {
	_, ok := t.leaves[owner]
	return ok
}

// ZoneOf returns the zone owned by owner.
func (t *Tree) ZoneOf(owner OwnerID) (Zone, bool) {
	leaf, ok := t.leaves[owner]
	if !ok {
		return Zone{}, false
	}
	return leaf.zone, true
}

// leafAt descends to the leaf containing p. When a coordinate equals
// a split plane exactly, the point belongs to the right (>=) child,
// matching the half-open zone convention.
func (t *Tree) leafAt(p Point) *treeNode {
	n := t.root
	for !n.isLeaf() {
		if p[n.splitDim] < n.splitAt {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// OwnerAt returns the owner of the zone containing p.
func (t *Tree) OwnerAt(p Point) OwnerID { return t.leafAt(p).owner }

// ZoneAt returns the zone containing p.
func (t *Tree) ZoneAt(p Point) Zone { return t.leafAt(p).zone }

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
func (t *Tree) Split(p Point, joiner OwnerID) (prev OwnerID, err error) {
	if _, dup := t.leaves[joiner]; dup {
		return NoOwner, ErrDuplicateOwner
	}
	if !p.InUnitCube() {
		return NoOwner, fmt.Errorf("space: split point %v outside unit cube", p)
	}
	leaf := t.leafAt(p)
	dim := int(leaf.depth) % t.dim
	lowerZ, upperZ := leaf.zone.Split(dim)
	mid := upperZ.Lo[dim]

	left := &treeNode{zone: lowerZ, parent: leaf, depth: leaf.depth + 1}
	right := &treeNode{zone: upperZ, parent: leaf, depth: leaf.depth + 1}
	if p[dim] < mid {
		left.owner, right.owner = joiner, leaf.owner
	} else {
		left.owner, right.owner = leaf.owner, joiner
	}
	prev = leaf.owner
	leaf.left, leaf.right = left, right
	leaf.splitDim, leaf.splitAt = int32(dim), mid
	leaf.owner = NoOwner
	t.leaves[left.owner] = left
	t.leaves[right.owner] = right
	return prev, nil
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
	leaf, ok := t.leaves[owner]
	if !ok {
		return Reassignment{}, ErrUnknownOwner
	}
	if len(t.leaves) == 1 {
		return Reassignment{}, ErrLastOwner
	}
	parent := leaf.parent
	sibling := parent.left
	if sibling == leaf {
		sibling = parent.right
	}
	delete(t.leaves, owner)

	if sibling.isLeaf() {
		// Merge: sibling's owner absorbs the whole parent zone.
		absorber := sibling.owner
		parent.left, parent.right = nil, nil
		parent.owner = absorber
		t.leaves[absorber] = parent
		return Reassignment{Departed: owner, Absorber: absorber, Mover: NoOwner}, nil
	}

	// Find the deepest buddy pair (internal node with two leaf
	// children) inside the sibling subtree, merge it, and relocate
	// one buddy into the departed zone.
	buddyParent := deepestBuddyPair(sibling)
	a, b := buddyParent.left, buddyParent.right
	absorber, mover := a.owner, b.owner
	buddyParent.left, buddyParent.right = nil, nil
	buddyParent.owner = absorber
	t.leaves[absorber] = buddyParent
	delete(t.leaves, mover)

	leaf.owner = mover
	t.leaves[mover] = leaf
	return Reassignment{Departed: owner, Absorber: absorber, Mover: mover}, nil
}

// deepestBuddyPair returns the deepest internal node of the subtree
// rooted at n whose two children are both leaves. Every internal
// subtree has at least one such node.
func deepestBuddyPair(n *treeNode) *treeNode {
	best := n
	bestDepth := int32(-1)
	var walk func(m *treeNode)
	walk = func(m *treeNode) {
		if m.isLeaf() {
			return
		}
		if m.left.isLeaf() && m.right.isLeaf() {
			if m.depth > bestDepth {
				best, bestDepth = m, m.depth
			}
			return
		}
		walk(m.left)
		walk(m.right)
	}
	walk(n)
	if bestDepth < 0 {
		panic("space: internal subtree without buddy pair (corrupt tree)")
	}
	return best
}

// Neighbors returns the owners of all zones adjacent to owner's zone
// per the CAN adjacency definition, in ascending owner order, with
// the adjacency description for each.
func (t *Tree) Neighbors(owner OwnerID) []Neighbor {
	leaf, ok := t.leaves[owner]
	if !ok {
		return nil
	}
	var out []Neighbor
	t.visitClosure(t.root, leaf.zone, func(cand *treeNode) {
		if cand == leaf {
			return
		}
		if adj, ok := leaf.zone.AdjacentTo(cand.zone); ok {
			out = append(out, Neighbor{Owner: cand.owner, Zone: cand.zone, Adj: adj})
		}
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

// visitClosure calls fn for every leaf whose closed hull intersects
// the closed hull of z, pruning disjoint subtrees.
func (t *Tree) visitClosure(n *treeNode, z Zone, fn func(*treeNode)) {
	if !n.zone.ClosureIntersects(z) {
		return
	}
	if n.isLeaf() {
		fn(n)
		return
	}
	t.visitClosure(n.left, z, fn)
	t.visitClosure(n.right, z, fn)
}

// RangeOwners returns the owners of every zone intersecting the
// closed query range [lo, hi] — the "responsible nodes" (shaded zones
// of Fig. 1) that INSCAN-RQ must visit. Owners are returned in
// ascending order.
func (t *Tree) RangeOwners(lo, hi Point) []OwnerID {
	var out []OwnerID
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if !n.zone.OverlapsRange(lo, hi) {
			return
		}
		if n.isLeaf() {
			out = append(out, n.owner)
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AdjacentLeafAcross returns the owner and zone of the leaf just
// across the boundary of z along dimension dim in the given
// direction, at the cross-section fixed by at (only at's coordinates
// in dimensions other than dim matter). ok is false at the edge of
// the space. This is the primitive used to walk zone sequences along
// a dimension when building 2^k index links.
func (t *Tree) AdjacentLeafAcross(z Zone, dim int, positive bool, at Point) (OwnerID, Zone, bool) {
	q := at.Clone()
	if positive {
		if z.Hi[dim] >= 1 {
			return NoOwner, Zone{}, false
		}
		q[dim] = z.Hi[dim] // first coordinate of the next zone (half-open)
		leaf := t.leafAt(q)
		return leaf.owner, leaf.zone, true
	}
	if z.Lo[dim] <= 0 {
		return NoOwner, Zone{}, false
	}
	q[dim] = z.Lo[dim]
	leaf := t.leafBiasedLeft(q, dim)
	return leaf.owner, leaf.zone, true
}

// leafBiasedLeft descends to the leaf containing p, except that when
// p's coordinate along biasDim coincides exactly with a split plane
// on that dimension, descent goes left (strictly below). This finds
// the zone whose upper boundary is p[biasDim] — the negative-side
// neighbor — without epsilon arithmetic.
func (t *Tree) leafBiasedLeft(p Point, biasDim int) *treeNode {
	n := t.root
	for !n.isLeaf() {
		if int(n.splitDim) == biasDim && p[biasDim] == n.splitAt {
			n = n.left
			continue
		}
		if p[n.splitDim] < n.splitAt {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// Walk visits every leaf in depth-first order.
func (t *Tree) Walk(fn func(owner OwnerID, z Zone)) {
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if n.isLeaf() {
			fn(n.owner, n.zone)
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
}

// Validate checks the structural invariants of the tree: children
// exactly partition their parent along the recorded split, leaves
// tile the unit cube (total volume 1, pairwise disjoint), the leaf
// index matches the tree, and depths are consistent. It returns the
// first violation found. Intended for tests and failure injection.
func (t *Tree) Validate() error {
	seen := make(map[OwnerID]bool)
	var walk func(n *treeNode) error
	walk = func(n *treeNode) error {
		if n.isLeaf() {
			if n.owner == NoOwner {
				return fmt.Errorf("leaf %v has no owner", n.zone)
			}
			if seen[n.owner] {
				return fmt.Errorf("owner %d owns two leaves", n.owner)
			}
			seen[n.owner] = true
			if t.leaves[n.owner] != n {
				return fmt.Errorf("leaf index mismatch for owner %d", n.owner)
			}
			return nil
		}
		if n.owner != NoOwner {
			return fmt.Errorf("internal node %v has owner %d", n.zone, n.owner)
		}
		if n.left.parent != n || n.right.parent != n {
			return fmt.Errorf("parent links broken at %v", n.zone)
		}
		if n.left.depth != n.depth+1 || n.right.depth != n.depth+1 {
			return fmt.Errorf("depth mismatch at %v", n.zone)
		}
		lo, hi := n.zone.Split(int(n.splitDim))
		_ = hi
		if n.left.zone.Hi[n.splitDim] != n.splitAt || n.right.zone.Lo[n.splitDim] != n.splitAt {
			return fmt.Errorf("split plane mismatch at %v", n.zone)
		}
		if !n.left.zone.Equal(Zone{Lo: n.zone.Lo, Hi: n.left.zone.Hi}) ||
			!n.right.zone.Equal(Zone{Lo: n.right.zone.Lo, Hi: n.zone.Hi}) {
			return fmt.Errorf("children do not partition parent at %v", n.zone)
		}
		if n.left.zone.Lo[n.splitDim] != lo.Lo[n.splitDim] {
			return fmt.Errorf("left child lower bound mismatch at %v", n.zone)
		}
		if err := walk(n.left); err != nil {
			return err
		}
		return walk(n.right)
	}
	if err := walk(t.root); err != nil {
		return err
	}
	if len(seen) != len(t.leaves) {
		return fmt.Errorf("leaf index has %d entries, tree has %d leaves", len(t.leaves), len(seen))
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
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		if n.isLeaf() {
			if int(n.depth) > max {
				max = int(n.depth)
			}
			return
		}
		walk(n.left)
		walk(n.right)
	}
	walk(t.root)
	return max
}
