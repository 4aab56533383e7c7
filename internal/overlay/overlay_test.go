package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pidcan/internal/sim"
	"pidcan/internal/space"
)

func build(t testing.TB, dim, n int, seed uint64) *Network {
	t.Helper()
	nw := New(dim, 0, sim.NewRNG(seed, sim.StreamOverlay))
	for i := 1; i < n; i++ {
		if _, err := nw.Join(NodeID(i)); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return nw
}

// randomPoint draws a uniform point of nw's space from the stream its
// joins draw from.
func randomPoint(nw *Network) space.Point {
	p := make(space.Point, nw.dim)
	for i := range p {
		p[i] = nw.rng.Float64()
	}
	return p
}

func TestJoinLeaveBasics(t *testing.T) {
	nw := build(t, 2, 16, 1)
	if nw.Size() != 16 {
		t.Fatalf("Size = %d", nw.Size())
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	re, err := nw.Leave(7)
	if err != nil {
		t.Fatal(err)
	}
	if re.Departed != 7 {
		t.Errorf("reassignment = %+v", re)
	}
	if nw.Contains(7) || nw.Size() != 15 {
		t.Error("leave did not remove the node")
	}
	if err := nw.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(nw.Nodes()) != 15 {
		t.Errorf("Nodes len = %d", len(nw.Nodes()))
	}
}

func TestOwnerAtCoversSpace(t *testing.T) {
	nw := build(t, 3, 64, 2)
	rng := sim.NewRNG(9, 99)
	for i := 0; i < 200; i++ {
		p := make(space.Point, 3)
		for k := range p {
			p[k] = rng.Float64()
		}
		id := nw.OwnerAt(p)
		z, ok := nw.ZoneOf(id)
		if !ok || !z.Contains(p) {
			t.Fatalf("OwnerAt(%v) = %d with zone %v", p, id, z)
		}
	}
}

func TestNeighborsAlong(t *testing.T) {
	nw := build(t, 2, 32, 3)
	for _, id := range nw.Nodes() {
		all := nw.Neighbors(id)
		count := 0
		for dim := 0; dim < 2; dim++ {
			for _, pos := range []bool{true, false} {
				for _, nb := range nw.NeighborsAlong(id, dim, pos) {
					count++
					found := false
					for _, a := range all {
						if a.Owner == nb && a.Adj.Dim == dim && a.Adj.Positive == pos {
							found = true
						}
					}
					if !found {
						t.Fatalf("NeighborsAlong(%d,%d,%v) returned %d not in Neighbors", id, dim, pos, nb)
					}
				}
			}
		}
		if count != len(all) {
			t.Fatalf("node %d: along-count %d != total %d", id, count, len(all))
		}
	}
}

func TestMaxIndexExponent(t *testing.T) {
	nw := New(2, 0, sim.NewRNG(1, sim.StreamOverlay))
	if nw.MaxIndexExponent() != 0 {
		t.Errorf("single node exponent = %d", nw.MaxIndexExponent())
	}
	nw = build(t, 2, 256, 4) // n^(1/2) = 16 → K = 4
	if got := nw.MaxIndexExponent(); got != 4 {
		t.Errorf("K = %d, want 4", got)
	}
}

// Links holds a node's index links: Pos[dim] and Neg[dim] list the
// 2^k-hop targets along each dimension in increasing distance (the
// 2^0 entry is the adjacent neighbor on the walk latitude).
type Links struct {
	Pos [][]Hop
	Neg [][]Hop
}

// IndexLinks computes all 2·d of id's index-link walks from its zone's
// center: the reference that Route's one-direction link jump is held
// to (TestRouteMatchesIndexLinkRouting).
func (nw *Network) IndexLinks(id NodeID) (Links, bool) {
	z, ok := nw.tree.ZoneOf(id)
	if !ok {
		return Links{}, false
	}
	maxDist := 1 << nw.MaxIndexExponent()
	links := Links{Pos: make([][]Hop, nw.dim), Neg: make([][]Hop, nw.dim)}
	for dim := range nw.dim {
		links.Pos[dim] = nw.walkPowers(z, dim, true, z.Center(), maxDist, nil)
		links.Neg[dim] = nw.walkPowers(z, dim, false, z.Center(), maxDist, nil)
	}
	return links, true
}

// refRoute is Route as it reads with every index link computed: each
// hop looks up cur's links through IndexLinks, takes the farthest one
// along the widest gap that neither overshoots nor fails to bring the
// zone closer, and otherwise steps to the adjacent zone at the
// target's latitude.
func refRoute(nw *Network, origin NodeID, target space.Point) ([]NodeID, error) {
	z, ok := nw.ZoneOf(origin)
	if !ok {
		return nil, fmt.Errorf("origin %d not in overlay", origin)
	}
	var hops []NodeID
	for cur := origin; !z.Contains(target); {
		if len(hops) > nw.Size()+4 {
			return hops, fmt.Errorf("hop cap exceeded routing to %v", target)
		}
		dim, positive := widestGap(z, target)
		if dim == -1 {
			return hops, fmt.Errorf("routing stuck at node %d", cur)
		}
		links, _ := nw.IndexLinks(cur)
		along := links.Pos[dim]
		if !positive {
			along = links.Neg[dim]
		}
		next := NoNode
		for i := len(along) - 1; i >= 0 && along[i].Dist > 1; i-- {
			lz, _ := nw.ZoneOf(along[i].ID)
			overshoots := positive && lz.Lo[dim] > target[dim] || !positive && lz.Hi[dim] <= target[dim]
			if !overshoots && intervalDistSq(lz, target) < intervalDistSq(z, target) {
				next = along[i].ID
				break
			}
		}
		if next == NoNode {
			id, _, ok := nw.tree.AdjacentLeafAcross(z, dim, positive, clampInto(nil, target, z))
			if !ok {
				return hops, fmt.Errorf("routing hit space edge at node %d", cur)
			}
			next = id
		}
		cur = next
		z, _ = nw.ZoneOf(cur)
		hops = append(hops, cur)
	}
	return hops, nil
}

// TestRouteMatchesIndexLinkRouting: Route walks only the one
// direction of index links a hop can take, and must route exactly as
// the reference that computes all of them — the same hops, or the same
// failure — on random trees of 1-4 dimensions between rounds of joins
// and leaves.
func TestRouteMatchesIndexLinkRouting(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		dim := 1 + int(seed%4)
		nw := build(t, dim, 40+int(seed)*20, seed)
		rng := sim.NewRNG(seed, 42)
		next := NodeID(10000)
		for round := range 4 {
			for range 60 {
				nodes := nw.Nodes()
				origin := nodes[rng.IntN(len(nodes))]
				target := randomPoint(nw)
				got, gerr := nw.Route(origin, target)
				want, werr := refRoute(nw, origin, target)
				if (gerr == nil) != (werr == nil) || !slices.Equal(got.Hops, want) {
					t.Fatalf("seed %d round %d: Route(%d, %v) = %v (%v), the index-link reference %v (%v)",
						seed, round, origin, target, got.Hops, gerr, want, werr)
				}
			}
			for range 25 { // churn: a join and a leave each, reshaping the tree
				if _, err := nw.Join(next); err != nil {
					t.Fatal(err)
				}
				next++
				nodes := nw.Nodes()
				if _, err := nw.Leave(nodes[rng.IntN(len(nodes))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := nw.Validate(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// pathSink keeps TestRouteAllocatesOnlyItsPath's reference appends on
// the heap, where a Route's path goes.
var pathSink []NodeID

// TestRouteAllocatesOnlyItsPath: a Route's link walks, centers and
// clamped points live on its stack, so what it allocates is its
// returned path, no more than appending as many ids one by one does.
func TestRouteAllocatesOnlyItsPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, dim := range []int{2, 5} {
		nw := build(t, dim, 3000, uint64(dim))
		rng := sim.NewRNG(uint64(dim), 7)
		nodes := nw.Nodes()
		for range 40 {
			origin, target := nodes[rng.IntN(len(nodes))], randomPoint(nw)
			path, err := nw.Route(origin, target)
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() { nw.Route(origin, target) })
			want := testing.AllocsPerRun(20, func() {
				pathSink = nil
				for _, id := range path.Hops {
					pathSink = append(pathSink, id)
				}
			})
			if got > want {
				t.Fatalf("dim %d: a %d-hop Route allocates %.0f objects, its path's appends %.0f", dim, path.Len(), got, want)
			}
		}
	}
}

func TestIndexLinksStructure(t *testing.T) {
	nw := build(t, 2, 256, 5)
	for _, id := range nw.Nodes()[:32] {
		links, ok := nw.IndexLinks(id)
		if !ok {
			t.Fatalf("IndexLinks(%d) not ok", id)
		}
		z, _ := nw.ZoneOf(id)
		for dim := 0; dim < 2; dim++ {
			for _, set := range []struct {
				hops []Hop
				pos  bool
			}{{links.Pos[dim], true}, {links.Neg[dim], false}} {
				wantDist := 1
				for _, h := range set.hops {
					if h.Dist != wantDist {
						t.Fatalf("node %d dim %d: dist %d, want %d", id, dim, h.Dist, wantDist)
					}
					wantDist <<= 1
					hz, ok := nw.ZoneOf(h.ID)
					if !ok {
						t.Fatalf("link target %d gone", h.ID)
					}
					// Link targets lie strictly on the claimed side.
					if set.pos && hz.Lo[dim] < z.Hi[dim] && hz.Hi[dim] <= z.Hi[dim] {
						t.Fatalf("positive link target %d not beyond node %d along dim %d", h.ID, id, dim)
					}
					if !set.pos && hz.Hi[dim] > z.Lo[dim] && hz.Lo[dim] >= z.Lo[dim] {
						t.Fatalf("negative link target %d not below node %d along dim %d", h.ID, id, dim)
					}
				}
			}
		}
	}
	if _, ok := nw.IndexLinks(9999); ok {
		t.Error("IndexLinks of unknown node should fail")
	}
}

func TestWalkDim(t *testing.T) {
	nw := build(t, 2, 64, 6)
	for _, id := range nw.Nodes()[:16] {
		// Walking 0 steps stays put (returns NoNode/0 taken).
		reached, taken := nw.WalkDim(id, 0, true, 0)
		if taken != 0 || reached != NoNode {
			t.Fatalf("0-step walk = %v, %d", reached, taken)
		}
		// A long walk must stop at the edge.
		reached, taken = nw.WalkDim(id, 0, true, 10000)
		if taken == 10000 {
			t.Fatalf("walk never hit the edge")
		}
		if taken > 0 {
			z, ok := nw.ZoneOf(reached)
			if !ok {
				t.Fatalf("walk reached unknown node")
			}
			if z.Hi[0] != 1 {
				t.Fatalf("edge walk ended at %v, not at the boundary", z)
			}
		}
	}
	if reached, taken := nw.WalkDim(9999, 0, true, 3); reached != NoNode || taken != 0 {
		t.Error("WalkDim of unknown node should be empty")
	}
}

func TestRouteReachesTarget(t *testing.T) {
	nw := build(t, 2, 128, 7)
	rng := sim.NewRNG(3, 42)
	nodes := nw.Nodes()
	for i := 0; i < 100; i++ {
		origin := nodes[rng.IntN(len(nodes))]
		target := make(space.Point, 2)
		for k := range target {
			target[k] = rng.Float64()
		}
		path, err := nw.Route(origin, target)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		dest := path.Dest()
		if dest == NoNode {
			dest = origin
		}
		z, _ := nw.ZoneOf(dest)
		if !z.Contains(target) {
			t.Fatalf("route ended at %d whose zone %v misses %v", dest, z, target)
		}
	}
}

func TestRouteAdjacentReachesTarget(t *testing.T) {
	nw := build(t, 3, 64, 8)
	rng := sim.NewRNG(4, 42)
	nodes := nw.Nodes()
	for i := 0; i < 50; i++ {
		origin := nodes[rng.IntN(len(nodes))]
		target := make(space.Point, 3)
		for k := range target {
			target[k] = rng.Float64()
		}
		path, err := nw.RouteAdjacent(origin, target)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		dest := path.Dest()
		if dest == NoNode {
			dest = origin
		}
		z, _ := nw.ZoneOf(dest)
		if !z.Contains(target) {
			t.Fatalf("adjacent route ended off-target")
		}
	}
}

func TestRouteSelfZone(t *testing.T) {
	nw := build(t, 2, 16, 9)
	id := nw.Nodes()[3]
	z, _ := nw.ZoneOf(id)
	path, err := nw.Route(id, z.Center())
	if err != nil || path.Len() != 0 || path.Dest() != NoNode {
		t.Errorf("self-route = %+v, %v", path, err)
	}
}

func TestRouteErrors(t *testing.T) {
	nw := build(t, 2, 8, 10)
	if _, err := nw.Route(999, space.Point{0.5, 0.5}); err == nil {
		t.Error("expected error for unknown origin")
	}
	if _, err := nw.Route(0, space.Point{0.5}); err == nil {
		t.Error("expected error for dimension mismatch")
	}
}

// Index-link routing must beat (or match) adjacent routing on hop
// count on average — the INSCAN speedup.
func TestRouteHopAdvantage(t *testing.T) {
	nw := build(t, 2, 1024, 11)
	rng := sim.NewRNG(5, 42)
	nodes := nw.Nodes()
	var linkHops, adjHops int
	const trials = 200
	for i := 0; i < trials; i++ {
		origin := nodes[rng.IntN(len(nodes))]
		target := space.Point{rng.Float64(), rng.Float64()}
		p1, err := nw.Route(origin, target)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := nw.RouteAdjacent(origin, target)
		if err != nil {
			t.Fatal(err)
		}
		linkHops += p1.Len()
		adjHops += p2.Len()
	}
	if linkHops >= adjHops {
		t.Errorf("index-link routing (%d hops) not faster than adjacent (%d hops)", linkHops, adjHops)
	}
	// Theorem-1 shape: mean indexed hops should be well under the
	// O(n^(1/d)) adjacent mean.
	t.Logf("mean hops: indexed %.2f adjacent %.2f", float64(linkHops)/trials, float64(adjHops)/trials)
}

// Theorem 1: routing delay is O(log2 n). Check that mean hops grow
// sub-linearly in n^(1/d) by comparing two network sizes.
func TestRouteLogarithmicGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	meanHops := func(n int) float64 {
		nw := build(t, 2, n, 12)
		rng := sim.NewRNG(6, 42)
		nodes := nw.Nodes()
		total := 0
		const trials = 150
		for i := 0; i < trials; i++ {
			origin := nodes[rng.IntN(len(nodes))]
			target := space.Point{rng.Float64(), rng.Float64()}
			p, err := nw.Route(origin, target)
			if err != nil {
				t.Fatal(err)
			}
			total += p.Len()
		}
		return float64(total) / trials
	}
	small, large := meanHops(256), meanHops(4096)
	// n grew 16x (n^(1/2) grew 4x); logarithmic hops should grow by
	// far less than 4x.
	if large > small*2.5 {
		t.Errorf("hops grew from %.2f to %.2f — faster than logarithmic", small, large)
	}
	t.Logf("mean hops: n=256 %.2f, n=4096 %.2f", small, large)
}

func TestRangeOwnersDelegation(t *testing.T) {
	nw := build(t, 2, 32, 13)
	owners := nw.RangeOwners(space.Point{0, 0}, space.Point{1, 1})
	if len(owners) != 32 {
		t.Errorf("full-range owners = %d, want 32", len(owners))
	}
}

// Property: under random churn the overlay stays valid and routing
// still terminates at the right zone.
func TestChurnRoutingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw := New(2, 0, sim.NewRNG(uint64(seed)+1, sim.StreamOverlay))
		next := NodeID(1)
		alive := []NodeID{0}
		for step := 0; step < 150; step++ {
			if len(alive) < 3 || r.Float64() < 0.55 {
				if _, err := nw.Join(next); err != nil {
					return false
				}
				alive = append(alive, next)
				next++
			} else {
				i := r.Intn(len(alive))
				if _, err := nw.Leave(alive[i]); err != nil {
					return false
				}
				alive = append(alive[:i], alive[i+1:]...)
			}
		}
		if nw.Validate() != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			origin := alive[r.Intn(len(alive))]
			target := space.Point{r.Float64(), r.Float64()}
			path, err := nw.Route(origin, target)
			if err != nil {
				return false
			}
			dest := path.Dest()
			if dest == NoNode {
				dest = origin
			}
			z, ok := nw.ZoneOf(dest)
			if !ok || !z.Contains(target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: every index link target is a genuine 2^k-hop walk result.
func TestIndexLinksMatchWalk(t *testing.T) {
	f := func(seed int64) bool {
		nw := New(3, 0, sim.NewRNG(uint64(seed)%1000+1, sim.StreamOverlay))
		for i := 1; i < 60; i++ {
			if _, err := nw.Join(NodeID(i)); err != nil {
				return false
			}
		}
		for _, id := range nw.Nodes()[:10] {
			links, _ := nw.IndexLinks(id)
			for dim := 0; dim < 3; dim++ {
				for _, h := range links.Pos[dim] {
					got, taken := nw.WalkDim(id, dim, true, h.Dist)
					if taken != h.Dist || got != h.ID {
						return false
					}
				}
				for _, h := range links.Neg[dim] {
					got, taken := nw.WalkDim(id, dim, false, h.Dist)
					if taken != h.Dist || got != h.ID {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHopDistanceStatistics(t *testing.T) {
	// Sanity-check the O(log) claim numerically: with n=1024, d=2,
	// mean indexed hop count should be below 3·log2(n^(1/d)) + d.
	nw := build(t, 2, 1024, 14)
	rng := sim.NewRNG(7, 42)
	nodes := nw.Nodes()
	total := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		origin := nodes[rng.IntN(len(nodes))]
		target := space.Point{rng.Float64(), rng.Float64()}
		p, err := nw.Route(origin, target)
		if err != nil {
			t.Fatal(err)
		}
		total += p.Len()
	}
	mean := float64(total) / trials
	bound := 3*math.Log2(math.Sqrt(1024)) + 2
	if mean > bound {
		t.Errorf("mean hops %.2f above logarithmic bound %.2f", mean, bound)
	}
}

func BenchmarkRouteIndexed(b *testing.B) {
	nw := build(b, 2, 2048, 15)
	rng := sim.NewRNG(8, 42)
	nodes := nw.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := nodes[rng.IntN(len(nodes))]
		target := space.Point{rng.Float64(), rng.Float64()}
		if _, err := nw.Route(origin, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteAdjacent(b *testing.B) {
	nw := build(b, 2, 2048, 15)
	rng := sim.NewRNG(8, 42)
	nodes := nw.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin := nodes[rng.IntN(len(nodes))]
		target := space.Point{rng.Float64(), rng.Float64()}
		if _, err := nw.RouteAdjacent(origin, target); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinLeave(b *testing.B) {
	nw := build(b, 2, 1024, 17)
	next := NodeID(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Join(next); err != nil {
			b.Fatal(err)
		}
		if _, err := nw.Leave(next); err != nil {
			b.Fatal(err)
		}
		next++
	}
}

// RandomWalkDim must move strictly along the requested dimension and
// direction, and repeated walks from the same origin must reach a
// diverse target set (the property index diffusion relies on).
func TestRandomWalkDim(t *testing.T) {
	nw := build(t, 3, 512, 21)
	rng := sim.NewRNG(5, 77)
	// Pick an interior node whose negative dim-0 face actually
	// branches (≥2 adjacent neighbors), so the walk has choices.
	var origin NodeID = -1
	for _, id := range nw.Nodes() {
		z, _ := nw.ZoneOf(id)
		if z.Lo[0] > 0.4 && z.Lo[1] > 0.4 && z.Lo[2] > 0.4 &&
			len(nw.NeighborsAlong(id, 0, false)) >= 2 {
			origin = id
			break
		}
	}
	if origin < 0 {
		t.Skip("no branching interior node found")
	}
	oz, _ := nw.ZoneOf(origin)
	// One-hop walks from a branching face must sample different
	// neighbors (the randomization index diffusion relies on).
	oneHop := map[NodeID]bool{}
	for i := 0; i < 60; i++ {
		id, taken := nw.RandomWalkDim(origin, 0, false, 1, rng)
		if taken != 1 {
			t.Fatalf("one-hop walk took %d steps", taken)
		}
		oneHop[id] = true
	}
	if len(oneHop) < 2 {
		t.Errorf("one-hop walks reached only %d distinct neighbors of a branching face", len(oneHop))
	}
	// Longer walks must move strictly negatively along the dimension.
	for i := 0; i < 30; i++ {
		id, taken := nw.RandomWalkDim(origin, 0, false, 2, rng)
		if taken == 0 {
			continue
		}
		z, ok := nw.ZoneOf(id)
		if !ok {
			t.Fatal("walk reached unknown node")
		}
		if z.Lo[0] >= oz.Lo[0] {
			t.Fatalf("walk did not move negatively: %v vs %v", z, oz)
		}
	}
	if id, taken := nw.RandomWalkDim(9999, 0, false, 2, rng); id != NoNode || taken != 0 {
		t.Error("walk from unknown node should be empty")
	}
}
