// Package overlay implements the CAN overlay network of the paper
// (§III.A) extended with INSCAN index links: every node owns a zone
// of the bounded d-dimensional space, knows its adjacent neighbors,
// and additionally links to the nodes 2^k zone-hops away along every
// dimension and direction (k = 0 … ⌊log2 n^{1/d}⌋), which gives
// O(log2 n) greedy routing instead of CAN's O(n^{1/d}).
//
// The overlay is the ground-truth structural substrate shared by all
// protocols of the evaluation: PID-CAN (internal/core), KHDN-CAN
// (internal/khdn) and INSCAN-RQ all route on it; Newscast
// (internal/gossip) ignores it by design.
//
// Zone bookkeeping uses the binary partition tree in internal/space;
// joins split the zone containing a random point, departures trigger
// the paper's zone-reassignment keeping node↔zone strictly 1:1. An
// initial population joins in one pass (JoinAll), which builds the
// tree its joins one by one would.
// Neighbor and index-link lookups are answered from the live tree,
// which models CAN's periodically refreshed neighbor state; the
// *application-level* soft state that the paper's churn experiments
// stress — cached resource records and diffused PIList indexes — is
// modelled with genuine staleness in internal/core.
package overlay

import (
	"fmt"
	"math"

	"pidcan/internal/sim"
	"pidcan/internal/space"
)

// NodeID identifies an overlay node. It doubles as the space.OwnerID
// of the node's zone.
type NodeID = space.OwnerID

// NoNode is the absent-node sentinel.
const NoNode NodeID = space.NoOwner

// Network is the CAN/INSCAN overlay. It is not safe for concurrent
// use, routes included (they cache K); each simulation run drives it
// from one goroutine. A population known up front joins through
// JoinAll, one pass over the zone tree; later nodes through Join.
type Network struct {
	dim  int
	tree *space.Tree
	rng  *sim.RNG
	pt   space.Point // Join's point, drawn afresh for every join
	// k is MaxIndexExponent at size kSize: every route hop asks for
	// it, and it changes only with the size.
	k, kSize int
}

// New creates an overlay of dimensionality dim whose first node
// (owning the whole space) is first. The RNG drives join-point
// selection and must be a dedicated overlay stream for determinism.
func New(dim int, first NodeID, rng *sim.RNG) *Network {
	return &Network{dim: dim, tree: space.NewTree(dim, first), rng: rng}
}

// Dim returns the dimensionality of the coordinate space.
func (nw *Network) Dim() int { return nw.dim }

// Size returns the number of nodes in the overlay.
func (nw *Network) Size() int { return nw.tree.Len() }

// Contains reports whether id is currently in the overlay.
func (nw *Network) Contains(id NodeID) bool { return nw.tree.Contains(id) }

// Nodes returns all node IDs in ascending order.
func (nw *Network) Nodes() []NodeID { return nw.tree.Owners() }

// ZoneOf returns the zone owned by id.
func (nw *Network) ZoneOf(id NodeID) (space.Zone, bool) { return nw.tree.ZoneOf(id) }

// OwnerAt returns the node whose zone contains p.
func (nw *Network) OwnerAt(p space.Point) NodeID { return nw.tree.OwnerAt(p) }

// Join adds id to the overlay at a uniformly random point, splitting
// the zone that contains it (the CAN join). It returns the previous
// owner of the split zone — the joiner's bootstrap contact — so the
// caller can account maintenance traffic.
func (nw *Network) Join(id NodeID) (contact NodeID, err error) {
	if nw.pt == nil {
		nw.pt = make(space.Point, nw.dim)
	}
	for i := range nw.pt {
		nw.pt[i] = nw.rng.Float64()
	}
	return nw.JoinAt(id, nw.pt)
}

// JoinAll adds n nodes first, first+1, … as n Joins in that order
// would: the same points drawn from the same stream, the same zones.
// It draws every point first and builds the tree in one pass
// (space.Tree.SplitAll), which allocates no object per node.
func (nw *Network) JoinAll(first NodeID, n int) error {
	coords := make([]float64, n*nw.dim)
	for i := range coords {
		coords[i] = nw.rng.Float64()
	}
	return nw.tree.SplitAll(coords, first)
}

// JoinAt is Join with an explicit join point.
func (nw *Network) JoinAt(id NodeID, p space.Point) (contact NodeID, err error) {
	return nw.tree.Split(p, id)
}

// Leave removes id, merging or reassigning zones per the binary
// partition tree (paper §IV.B). The returned reassignment names the
// absorber and the relocated node (if any) for traffic accounting
// and record invalidation.
func (nw *Network) Leave(id NodeID) (space.Reassignment, error) {
	return nw.tree.Remove(id)
}

// Neighbors returns id's adjacent neighbors with adjacency metadata.
func (nw *Network) Neighbors(id NodeID) []space.Neighbor {
	return nw.tree.Neighbors(id)
}

// NeighborsAlong returns the adjacent neighbors of id along one
// dimension and direction (positive neighbors when positive is true).
func (nw *Network) NeighborsAlong(id NodeID, dim int, positive bool) []NodeID {
	var out []NodeID
	for _, nb := range nw.tree.Neighbors(id) {
		if nb.Adj.Dim == dim && nb.Adj.Positive == positive {
			out = append(out, nb.Owner)
		}
	}
	return out
}

// MaxIndexExponent returns K = ⌊log2 n^{1/d}⌋, the largest k for
// which 2^k-hop index links are maintained (paper §III.B), never
// below 0.
func (nw *Network) MaxIndexExponent() int {
	if n := nw.Size(); n != nw.kSize {
		nw.k, nw.kSize = 0, n
		if n >= 2 {
			nw.k = max(0, int(math.Floor(math.Log2(math.Pow(float64(n), 1/float64(nw.dim))))))
		}
	}
	return nw.k
}

// Hop is one index link: the node reached after walking Dist zone
// hops from the link's origin.
type Hop struct {
	ID   NodeID
	Dist int // 2^k for some k, or fewer if the walk hit the space edge
}

// walkPowers walks up to maxDist adjacent-zone hops along (dim,
// positive) at the fixed latitude, recording the nodes at hop
// distances 1, 2, 4, …, maxDist: from z, at the latitude of z's
// center and with maxDist 2^MaxIndexExponent, the index links of z's
// owner along that direction — the INSCAN structure each node
// refreshes periodically. Walks stop at the space edge, so edge nodes
// simply have fewer links (the space is not a torus). The hops are
// appended to out.
func (nw *Network) walkPowers(z space.Zone, dim int, positive bool, at space.Point, maxDist int, out []Hop) []Hop {
	cur := z
	steps := 0
	nextPow := 1
	for steps < maxDist {
		id, nz, ok := nw.tree.AdjacentLeafAcross(cur, dim, positive, at)
		if !ok {
			break // space edge
		}
		cur = nz
		steps++
		if steps == nextPow {
			out = append(out, Hop{ID: id, Dist: steps})
			nextPow <<= 1
		}
	}
	return out
}

// RandomWalkDim walks up to steps zone hops from id along (dim,
// positive), choosing uniformly among the adjacent neighbors on that
// face at every hop. Unlike the fixed-latitude WalkDim (which the
// 2^k routing links use), the random walk samples the whole
// d-1-dimensional cross-section — this is what makes repeated
// index-diffusion rounds reach *different* 2^k-hop index nodes
// (§III.B "the negative-index nodes … are randomly selected").
func (nw *Network) RandomWalkDim(id NodeID, dim int, positive bool, steps int, rng *sim.RNG) (NodeID, int) {
	if !nw.tree.Contains(id) {
		return NoNode, 0
	}
	cur := id
	taken := 0
	for taken < steps {
		nbs := nw.NeighborsAlong(cur, dim, positive)
		if len(nbs) == 0 {
			break
		}
		cur = nbs[rng.IntN(len(nbs))]
		taken++
	}
	if taken == 0 {
		return NoNode, 0
	}
	return cur, taken
}

// WalkDim walks exactly steps zone hops from id along (dim,
// positive) at id's center latitude and returns the node reached and
// the hops actually taken (fewer if the edge intervened).
func (nw *Network) WalkDim(id NodeID, dim int, positive bool, steps int) (NodeID, int) {
	z, ok := nw.tree.ZoneOf(id)
	if !ok {
		return NoNode, 0
	}
	at := z.Center()
	cur := z
	reached := NoNode
	taken := 0
	for taken < steps {
		nid, nz, ok := nw.tree.AdjacentLeafAcross(cur, dim, positive, at)
		if !ok {
			break
		}
		cur, reached = nz, nid
		taken++
	}
	return reached, taken
}

// Path is the outcome of a routing operation: the sequence of nodes
// visited after the origin (the destination is the last entry).
type Path struct {
	Hops []NodeID
}

// Len returns the number of network hops (= messages) on the path.
func (p Path) Len() int { return len(p.Hops) }

// Dest returns the final node of the path, or NoNode for an empty
// path (origin already owned the target point).
func (p Path) Dest() NodeID {
	if len(p.Hops) == 0 {
		return NoNode
	}
	return p.Hops[len(p.Hops)-1]
}

// intervalDistSq returns the squared Euclidean distance from t to
// zone z (0 inside).
func intervalDistSq(z space.Zone, t space.Point) float64 {
	s := 0.0
	for k := range t {
		var d float64
		switch {
		case t[k] < z.Lo[k]:
			d = z.Lo[k] - t[k]
		case t[k] >= z.Hi[k]:
			d = t[k] - z.Hi[k]
		}
		s += d * d
	}
	return s
}

// widestGap returns the dimension along which target lies farthest
// outside z (the first on ties; -1 when z contains it) and whether it
// lies on the positive side. A gap can be zero when t[k] == z.Hi[k]
// (half-open boundary); that is still a dimension to cross.
func widestGap(z space.Zone, t space.Point) (dim int, positive bool) {
	dim, widest := -1, -1.0
	for k := range t {
		if t[k] >= z.Hi[k] && t[k]-z.Hi[k] > widest {
			dim, widest, positive = k, t[k]-z.Hi[k], true
		} else if t[k] < z.Lo[k] && z.Lo[k]-t[k] > widest {
			dim, widest, positive = k, z.Lo[k]-t[k], false
		}
	}
	return dim, positive
}

// clampInto appends t clamped into z to p (using the closed lower and
// the open upper bound; the upper clamp stays strictly inside).
func clampInto(p, t space.Point, z space.Zone) space.Point {
	for k, x := range t {
		if x < z.Lo[k] {
			x = z.Lo[k]
		} else if x >= z.Hi[k] {
			// Strictly inside the half-open zone.
			x = z.Lo[k] + (z.Hi[k]-z.Lo[k])*0.999999
		}
		p = append(p, x)
	}
	return p
}

// centerInto appends z's center to p: z.Center without allocating.
func centerInto(p space.Point, z space.Zone) space.Point {
	for k := range z.Lo {
		p = append(p, (z.Lo[k]+z.Hi[k])/2)
	}
	return p
}

// pointBuf is stack room for a point of the routing loop: spaces of
// up to this many dimensions route without allocating one.
type pointBuf [8]float64

// Route greedily routes from origin to the node owning target using
// index links with binary lifting, falling back to adjacent-zone
// steps toward the target latitude. Adjacent steps strictly decrease
// the cursor's distance to the target (see the termination argument
// in DESIGN.md), so routing always terminates; index links are taken
// only when they also strictly decrease the zone distance, which
// yields the O(log2 n) hop bound of Theorem 1 in the regular case.
func (nw *Network) Route(origin NodeID, target space.Point) (Path, error) {
	return nw.route(origin, target, true)
}

// RouteAdjacent routes using only adjacent neighbors — the original
// CAN greedy routing with O(n^{1/d}) hops, used by baselines and by
// the routing-cost ablation.
func (nw *Network) RouteAdjacent(origin NodeID, target space.Point) (Path, error) {
	return nw.route(origin, target, false)
}

func (nw *Network) route(origin NodeID, target space.Point, useLinks bool) (Path, error) {
	if len(target) != nw.dim {
		return Path{}, fmt.Errorf("overlay: target dimension %d, want %d", len(target), nw.dim)
	}
	z, ok := nw.tree.ZoneOf(origin)
	if !ok {
		return Path{}, fmt.Errorf("overlay: origin %d not in overlay", origin)
	}
	var path Path
	var buf pointBuf
	cur := origin
	hopCap := nw.Size() + 4 // adjacent stepping visits each zone at most once
	for hop := 0; hop < hopCap; hop++ {
		if z.Contains(target) {
			return path, nil
		}
		next := NoNode
		var nz space.Zone
		if useLinks {
			next, nz = nw.bestLinkJump(z, target)
		}
		if next == NoNode {
			// Adjacent step toward the target along the dimension
			// with the largest gap, at the target's latitude.
			p := clampInto(buf[:0], target, z)
			bestDim, positive := widestGap(z, target)
			if bestDim == -1 {
				return path, fmt.Errorf("overlay: routing stuck at node %d zone %v target %v", cur, z, target)
			}
			id, zz, ok := nw.tree.AdjacentLeafAcross(z, bestDim, positive, p)
			if !ok {
				return path, fmt.Errorf("overlay: routing hit space edge at node %d toward %v", cur, target)
			}
			next, nz = id, zz
		}
		cur, z = next, nz
		path.Hops = append(path.Hops, cur)
	}
	return path, fmt.Errorf("overlay: hop cap exceeded routing to %v", target)
}

// bestLinkJump returns the farthest index link of the owner of zone z
// that strictly decreases the zone distance to target, or NoNode when
// no link qualifies (adjacent fallback will run).
func (nw *Network) bestLinkJump(z space.Zone, target space.Point) (NodeID, space.Zone) {
	curDist := intervalDistSq(z, target)
	// Choose the dimension with the largest gap and jump as far as
	// possible along it without overshooting the target coordinate.
	bestDim, positive := widestGap(z, target)
	if bestDim == -1 {
		return NoNode, space.Zone{}
	}
	// Only the links along (bestDim, positive) can be taken: walk those.
	var at pointBuf
	var walk [16]Hop
	hops := nw.walkPowers(z, bestDim, positive, centerInto(at[:0], z), 1<<nw.MaxIndexExponent(), walk[:0])
	// Scan from the farthest link down; accept the first whose zone
	// does not overshoot along bestDim and strictly improves the
	// distance. Skip the 2^0 link — the fallback handles adjacency
	// at the proper latitude.
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].Dist <= 1 {
			break
		}
		lz, ok := nw.tree.ZoneOf(hops[i].ID)
		if !ok {
			continue
		}
		if positive && lz.Lo[bestDim] > target[bestDim] {
			continue // overshoot
		}
		if !positive && lz.Hi[bestDim] <= target[bestDim] {
			continue
		}
		if intervalDistSq(lz, target) < curDist {
			return hops[i].ID, lz
		}
	}
	return NoNode, space.Zone{}
}

// Validate checks the underlying partition tree invariants.
func (nw *Network) Validate() error { return nw.tree.Validate() }

// RangeOwners returns the nodes responsible for any part of the
// closed range [lo, hi] — the flooding set of INSCAN-RQ.
func (nw *Network) RangeOwners(lo, hi space.Point) []NodeID {
	return nw.tree.RangeOwners(lo, hi)
}
