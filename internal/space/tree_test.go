package space

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(r *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = r.Float64()
	}
	return p
}

// buildRandomTree joins n owners at random points.
func buildRandomTree(r *rand.Rand, d, n int) *Tree {
	tr := NewTree(d, 0)
	for i := 1; i < n; i++ {
		if _, err := tr.Split(randPoint(r, d), OwnerID(i)); err != nil {
			panic(err)
		}
	}
	return tr
}

// splitSequential is Split as it was before the one-pass build: find
// the leaf holding p, split it. TestSplitAllMatchesSequentialSplits
// holds SplitAll and Split to it.
func splitSequential(t *Tree, p Point, joiner OwnerID) OwnerID {
	s := t.leafAt(p, -1, 0, false)
	dim, z := int(t.nodes[s].dim), t.zones[s]
	bounds := make(Point, 2*t.dim)
	hi, lo := bounds[:t.dim:t.dim], bounds[t.dim:]
	copy(hi, z.Hi)
	copy(lo, z.Lo)
	lower, upper := z.splitInto(dim, hi, lo)
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
	return prev
}

// sameTree reports the first difference between a and b that an owner
// can see: the leaves in Walk order, owner and zone bit for bit, and
// the neighbours of every sample-th owner.
func sameTree(a, b *Tree, sample int) error {
	type leaf struct {
		owner OwnerID
		zone  Zone
	}
	var la, lb []leaf
	a.Walk(func(o OwnerID, z Zone) { la = append(la, leaf{o, z}) })
	b.Walk(func(o OwnerID, z Zone) { lb = append(lb, leaf{o, z}) })
	if len(la) != len(lb) {
		return fmt.Errorf("%d leaves, want %d", len(la), len(lb))
	}
	for i := range la {
		if la[i].owner != lb[i].owner || !sameZoneBits(la[i].zone, lb[i].zone) {
			return fmt.Errorf("leaf %d is %d %v, want %d %v", i, la[i].owner, la[i].zone, lb[i].owner, lb[i].zone)
		}
		if i%sample != 0 {
			continue
		}
		na, nb := a.Neighbors(la[i].owner), b.Neighbors(lb[i].owner)
		if len(na) != len(nb) {
			return fmt.Errorf("owner %d has %d neighbours, want %d", la[i].owner, len(na), len(nb))
		}
		for j := range na {
			if na[j].Owner != nb[j].Owner || na[j].Adj != nb[j].Adj || !sameZoneBits(na[j].Zone, nb[j].Zone) {
				return fmt.Errorf("owner %d neighbour %d is %+v, want %+v", la[i].owner, j, na[j], nb[j])
			}
		}
	}
	return nil
}

func sameZoneBits(a, b Zone) bool { return sameBits(a.Lo, b.Lo) && sameBits(a.Hi, b.Hi) }

func sameBits(a, b Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSplitAllMatchesSequentialSplits builds random 1–5-dimension
// trees three ways from the same points — SplitAll in one pass, one
// Split per point, and the sequential reference — on a fresh tree or
// on one pre-populated by up to 50 splits and a few removes (so that
// released slot pairs are reused), and holds them equal: zones per
// owner bit for bit, Walk order and neighbours, then the Reassignment
// of every one of a run of later removes and the trees after them.
func TestSplitAllMatchesSequentialSplits(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := 1 + int(seed%5)
		trees := [3]*Tree{NewTree(d, 0), NewTree(d, 0), NewTree(d, 0)}
		all, bulk, single, ref := trees[:], trees[0], trees[1], trees[2]
		alive, next := []OwnerID{0}, OwnerID(1)
		if seed%4 != 0 {
			for range r.Intn(51) {
				p := randPoint(r, d)
				for _, tr := range all {
					splitSequential(tr, p, next)
				}
				alive = append(alive, next)
				next++
			}
			for range r.Intn(4) {
				if len(alive) < 2 {
					break
				}
				i := r.Intn(len(alive))
				for _, tr := range all {
					if _, err := tr.Remove(alive[i]); err != nil {
						t.Fatal(err)
					}
				}
				alive = append(alive[:i], alive[i+1:]...)
			}
		}
		k := 1 + r.Intn(3000)
		coords := make([]float64, 0, k*d)
		for range k {
			coords = append(coords, randPoint(r, d)...)
		}
		if err := bulk.SplitAll(coords, next); err != nil {
			t.Fatal(err)
		}
		for i := range k {
			p := Point(coords[i*d : (i+1)*d])
			want := splitSequential(ref, p, next+OwnerID(i))
			if got, err := single.Split(p, next+OwnerID(i)); err != nil || got != want {
				t.Fatalf("seed %d: Split %d returned %d, %v; want %d", seed, i, got, err, want)
			}
			alive = append(alive, next+OwnerID(i))
		}
		for i, tr := range all[:2] {
			if err := tr.Validate(); err != nil {
				t.Fatalf("seed %d tree %d: %v", seed, i, err)
			}
			if err := sameTree(tr, ref, 7); err != nil {
				t.Fatalf("seed %d, %d-dim, %d points, tree %d: %v", seed, d, k, i, err)
			}
		}
		for range min(len(alive)-1, 200) {
			i := r.Intn(len(alive))
			want, err := ref.Remove(alive[i])
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range all[:2] {
				if got, err := tr.Remove(alive[i]); err != nil || got != want {
					t.Fatalf("seed %d: Remove(%d) = %+v, %v; want %+v", seed, alive[i], got, err, want)
				}
			}
			alive = append(alive[:i], alive[i+1:]...)
		}
		for i, tr := range all[:2] {
			if err := sameTree(tr, ref, 7); err != nil {
				t.Fatalf("seed %d after removes, tree %d: %v", seed, i, err)
			}
		}
	}
}

// TestSplitAllRefusesAndChangesNothing: a bad point or a joiner already
// present fails the whole call before any split.
func TestSplitAllRefusesAndChangesNothing(t *testing.T) {
	tr := NewTree(2, 0)
	for _, c := range []struct {
		coords []float64
		first  OwnerID
	}{
		{[]float64{0.5, 0.5, 0.2}, 1},      // not 2-dimensional points
		{[]float64{0.5, 0.5, 0.2, 1.0}, 1}, // a coordinate outside [0,1)
		{[]float64{0.5, 0.5}, 0},           // owner 0 is present
		{[]float64{0.5, 0.5}, -1},          // a negative owner
	} {
		if err := tr.SplitAll(c.coords, c.first); err == nil {
			t.Errorf("SplitAll(%v, %d) succeeded", c.coords, c.first)
		}
		if tr.Len() != 1 || len(tr.nodes) != 1 {
			t.Fatalf("a refused SplitAll changed the tree: %d owners, %d slots", tr.Len(), len(tr.nodes))
		}
	}
}

func TestNewTree(t *testing.T) {
	tr := NewTree(2, 7)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if z, ok := tr.ZoneOf(7); !ok || !z.Equal(UnitZone(2)) {
		t.Errorf("ZoneOf(7) = %v, %v", z, ok)
	}
	if tr.OwnerAt(Point{0.5, 0.5}) != 7 {
		t.Error("OwnerAt wrong")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSplitBasics(t *testing.T) {
	tr := NewTree(2, 0)
	prev, err := tr.Split(Point{0.75, 0.5}, 1)
	if err != nil || prev != 0 {
		t.Fatalf("Split = %v, %v", prev, err)
	}
	// Depth-0 split is along dim 0; joiner took the upper half
	// (its point 0.75 >= 0.5).
	z0, _ := tr.ZoneOf(0)
	z1, _ := tr.ZoneOf(1)
	if !z0.Equal(Zone{Lo: Point{0, 0}, Hi: Point{0.5, 1}}) {
		t.Errorf("zone 0 = %v", z0)
	}
	if !z1.Equal(Zone{Lo: Point{0.5, 0}, Hi: Point{1, 1}}) {
		t.Errorf("zone 1 = %v", z1)
	}
	// Second split of zone 1 happens along dim 1 (depth 1).
	if _, err := tr.Split(Point{0.75, 0.75}, 2); err != nil {
		t.Fatal(err)
	}
	z2, _ := tr.ZoneOf(2)
	if !z2.Equal(Zone{Lo: Point{0.5, 0.5}, Hi: Point{1, 1}}) {
		t.Errorf("zone 2 = %v", z2)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestSplitErrors(t *testing.T) {
	tr := NewTree(2, 0)
	if _, err := tr.Split(Point{0.5, 0.5}, 0); err != ErrDuplicateOwner {
		t.Errorf("duplicate split err = %v", err)
	}
	if _, err := tr.Split(Point{1.5, 0.5}, 1); err == nil {
		t.Error("expected error for point outside cube")
	}
}

func TestRemoveMergesSiblingLeaf(t *testing.T) {
	tr := NewTree(2, 0)
	if _, err := tr.Split(Point{0.75, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	re, err := tr.Remove(1)
	if err != nil {
		t.Fatal(err)
	}
	if re.Absorber != 0 || re.Mover != NoOwner {
		t.Errorf("Reassignment = %+v", re)
	}
	if z, _ := tr.ZoneOf(0); !z.Equal(UnitZone(2)) {
		t.Errorf("absorbed zone = %v", z)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRemoveRelocatesBuddy(t *testing.T) {
	tr := NewTree(2, 0)
	// 0 | 1  split, then split 1's half twice more so the sibling of
	// 0's leaf is internal.
	mustSplit := func(p Point, id OwnerID) {
		t.Helper()
		if _, err := tr.Split(p, id); err != nil {
			t.Fatal(err)
		}
	}
	mustSplit(Point{0.75, 0.5}, 1)  // 1 owns right half
	mustSplit(Point{0.75, 0.75}, 2) // splits right half along dim1
	mustSplit(Point{0.9, 0.9}, 3)   // deeper split
	departedZone, _ := tr.ZoneOf(0)
	re, err := tr.Remove(0)
	if err != nil {
		t.Fatal(err)
	}
	if re.Mover == NoOwner {
		t.Fatalf("expected relocation, got %+v", re)
	}
	if z, ok := tr.ZoneOf(re.Mover); !ok || !z.Equal(departedZone) {
		t.Errorf("mover zone = %v, want departed zone %v", z, departedZone)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
}

func TestRemoveErrors(t *testing.T) {
	tr := NewTree(2, 0)
	if _, err := tr.Remove(42); err != ErrUnknownOwner {
		t.Errorf("unknown owner err = %v", err)
	}
	if _, err := tr.Remove(0); err != ErrLastOwner {
		t.Errorf("last owner err = %v", err)
	}
}

func TestNeighborsGrid(t *testing.T) {
	// Build a 2x2 grid: owners 0 (SW after splits), 1 (E), 2 (NE), ...
	tr := NewTree(2, 0)
	mustSplit := func(p Point, id OwnerID) {
		t.Helper()
		if _, err := tr.Split(p, id); err != nil {
			t.Fatal(err)
		}
	}
	mustSplit(Point{0.75, 0.25}, 1) // right half to 1
	mustSplit(Point{0.25, 0.75}, 2) // top-left to 2
	mustSplit(Point{0.75, 0.75}, 3) // top-right to 3
	// Zones: 0=[0,.5)x[0,.5) 1=[.5,1)x[0,.5) 2=[0,.5)x[.5,1) 3=[.5,1)x[.5,1)
	nbs := tr.Neighbors(0)
	if len(nbs) != 2 {
		t.Fatalf("neighbors of 0 = %v", nbs)
	}
	if nbs[0].Owner != 1 || nbs[0].Adj.Dim != 0 || !nbs[0].Adj.Positive {
		t.Errorf("neighbor[0] = %+v", nbs[0])
	}
	if nbs[1].Owner != 2 || nbs[1].Adj.Dim != 1 || !nbs[1].Adj.Positive {
		t.Errorf("neighbor[1] = %+v", nbs[1])
	}
	if got := tr.Neighbors(99); got != nil {
		t.Errorf("neighbors of unknown owner = %v", got)
	}
}

func TestRangeOwners(t *testing.T) {
	tr := NewTree(2, 0)
	mustSplit := func(p Point, id OwnerID) {
		t.Helper()
		if _, err := tr.Split(p, id); err != nil {
			t.Fatal(err)
		}
	}
	mustSplit(Point{0.75, 0.25}, 1)
	mustSplit(Point{0.25, 0.75}, 2)
	mustSplit(Point{0.75, 0.75}, 3)
	got := tr.RangeOwners(Point{0.6, 0.6}, Point{1, 1})
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("RangeOwners tight = %v", got)
	}
	got = tr.RangeOwners(Point{0.4, 0.4}, Point{0.6, 0.6})
	if len(got) != 4 {
		t.Errorf("RangeOwners crossing all = %v", got)
	}
	got = tr.RangeOwners(Point{0, 0}, Point{0.2, 0.2})
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("RangeOwners corner = %v", got)
	}
}

func TestAdjacentLeafAcross(t *testing.T) {
	tr := NewTree(2, 0)
	mustSplit := func(p Point, id OwnerID) {
		t.Helper()
		if _, err := tr.Split(p, id); err != nil {
			t.Fatal(err)
		}
	}
	mustSplit(Point{0.75, 0.25}, 1)
	mustSplit(Point{0.25, 0.75}, 2)
	mustSplit(Point{0.75, 0.75}, 3)
	z0, _ := tr.ZoneOf(0)
	at := z0.Center()
	// Positive along dim 0 from zone 0 → zone 1.
	if id, _, ok := tr.AdjacentLeafAcross(z0, 0, true, at); !ok || id != 1 {
		t.Errorf("across +0 = %v, %v", id, ok)
	}
	// Positive along dim 1 from zone 0 → zone 2.
	if id, _, ok := tr.AdjacentLeafAcross(z0, 1, true, at); !ok || id != 2 {
		t.Errorf("across +1 = %v, %v", id, ok)
	}
	// Negative from zone 0 hits the space edge.
	if _, _, ok := tr.AdjacentLeafAcross(z0, 0, false, at); ok {
		t.Error("expected edge along -0")
	}
	// Negative along dim 0 from zone 1 → zone 0 (exercises the
	// biased-left lookup at an exact split plane).
	z1, _ := tr.ZoneOf(1)
	if id, _, ok := tr.AdjacentLeafAcross(z1, 0, false, z1.Center()); !ok || id != 0 {
		t.Errorf("across -0 from 1 = %v, %v", id, ok)
	}
}

func TestOwnersAndContains(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr := buildRandomTree(r, 3, 17)
	owners := tr.Owners()
	if len(owners) != 17 {
		t.Fatalf("Owners len = %d", len(owners))
	}
	for i, id := range owners {
		if int(id) != i {
			t.Errorf("owner %d = %d, want sorted dense ids", i, id)
		}
		if !tr.Contains(id) {
			t.Errorf("Contains(%d) = false", id)
		}
	}
	if tr.Contains(999) {
		t.Error("Contains(999) = true")
	}
}

func TestMaxDepthGrows(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr := buildRandomTree(r, 2, 64)
	if d := tr.MaxDepth(); d < 6 {
		t.Errorf("MaxDepth = %d, want >= log2(64)", d)
	}
}

// Property: after arbitrary interleaved join/leave sequences the tree
// still tiles the unit cube, every point has exactly one owner, and
// Validate passes.
func TestTreeChurnInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(4)
		tr := NewTree(d, 0)
		next := OwnerID(1)
		alive := []OwnerID{0}
		for step := 0; step < 120; step++ {
			if len(alive) == 1 || r.Float64() < 0.6 {
				if _, err := tr.Split(randPoint(r, d), next); err != nil {
					return false
				}
				alive = append(alive, next)
				next++
			} else {
				i := r.Intn(len(alive))
				victim := alive[i]
				re, err := tr.Remove(victim)
				if err != nil {
					return false
				}
				if re.Departed != victim {
					return false
				}
				alive = append(alive[:i], alive[i+1:]...)
			}
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		// Every random point must resolve to an alive owner.
		aliveSet := make(map[OwnerID]bool, len(alive))
		for _, id := range alive {
			aliveSet[id] = true
		}
		for i := 0; i < 50; i++ {
			if !aliveSet[tr.OwnerAt(randPoint(r, d))] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Zones share the bounds a split does not move, which is sound only
// if no zone is ever written after it is built: every zone the tree
// hands out over a long join/leave history — leaves, and through the
// zones held from before a split, internal nodes — must still read,
// bit for bit, as it did when it was handed out. The history starts
// from a single zone, and again from 300 owners built by SplitAll,
// whose bounds are carved from one array.
func TestZonesAreNeverWrittenAfterConstruction(t *testing.T) {
	for _, bulk := range []int{0, 300} {
		zonesNeverWritten(t, bulk)
	}
}

func zonesNeverWritten(t *testing.T, bulk int) {
	const d = 3
	r := rand.New(rand.NewSource(41))
	tr := NewTree(d, 0)
	coords := make([]float64, 0, bulk*d)
	for range bulk {
		coords = append(coords, randPoint(r, d)...)
	}
	if err := tr.SplitAll(coords, 1); err != nil {
		t.Fatal(err)
	}
	type held struct{ zone, copy Zone }
	var handed []held
	hold := func(ids ...OwnerID) {
		for _, id := range ids {
			if z, ok := tr.ZoneOf(id); ok {
				handed = append(handed, held{z, Zone{Lo: z.Lo.Clone(), Hi: z.Hi.Clone()}})
			}
		}
	}
	alive := []OwnerID{0}
	for id := range OwnerID(bulk) {
		alive = append(alive, id+1)
	}
	hold(alive...)
	next := OwnerID(bulk + 1)
	for op := 1; op <= 5000; op++ {
		if len(alive) < 2 || r.Float64() < 0.55 {
			prev, err := tr.Split(randPoint(r, d), next)
			if err != nil {
				t.Fatal(err)
			}
			hold(prev, next)
			alive = append(alive, next)
			next++
		} else {
			i := r.Intn(len(alive))
			re, err := tr.Remove(alive[i])
			if err != nil {
				t.Fatal(err)
			}
			alive = append(alive[:i], alive[i+1:]...)
			hold(re.Absorber, re.Mover)
		}
		if op%100 != 0 {
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("from %d owners, op %d: %v", bulk+1, op, err)
		}
		for i, h := range handed {
			if !sameBits(h.zone.Lo, h.copy.Lo) || !sameBits(h.zone.Hi, h.copy.Hi) {
				t.Fatalf("from %d owners, op %d: zone %d handed out as %v now reads %v", bulk+1, op, i, h.copy, h.zone)
			}
		}
	}
}

// Property: RangeOwners returns exactly the owners whose zones overlap
// the range (cross-checked against a brute-force walk).
func TestRangeOwnersMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(3)
		tr := buildRandomTree(r, d, 30)
		lo, hi := randPoint(r, d), randPoint(r, d)
		for i := range lo {
			if lo[i] > hi[i] {
				lo[i], hi[i] = hi[i], lo[i]
			}
		}
		want := make(map[OwnerID]bool)
		tr.Walk(func(id OwnerID, z Zone) {
			if z.OverlapsRange(lo, hi) {
				want[id] = true
			}
		})
		got := tr.RangeOwners(lo, hi)
		if len(got) != len(want) {
			return false
		}
		for _, id := range got {
			if !want[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: walking across a boundary lands in a zone adjacent along
// that dimension whose cross-section contains the latitude point.
func TestAdjacentLeafAcrossProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(3)
		tr := buildRandomTree(r, d, 25)
		for _, id := range tr.Owners() {
			z, _ := tr.ZoneOf(id)
			at := z.Center()
			for dim := 0; dim < d; dim++ {
				for _, pos := range []bool{true, false} {
					nid, nz, ok := tr.AdjacentLeafAcross(z, dim, pos, at)
					if !ok {
						// Must be at the space edge.
						if pos && z.Hi[dim] < 1 {
							return false
						}
						if !pos && z.Lo[dim] > 0 {
							return false
						}
						continue
					}
					if nid == id {
						return false
					}
					// The found zone must abut z along dim in direction pos.
					if pos && nz.Lo[dim] != z.Hi[dim] {
						return false
					}
					if !pos && nz.Hi[dim] != z.Lo[dim] {
						return false
					}
					// Cross-section must contain the latitude in other dims.
					for k := 0; k < d; k++ {
						if k == dim {
							continue
						}
						if at[k] < nz.Lo[k] || at[k] >= nz.Hi[k] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTreeSplit(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := NewTree(5, 0)
		b.StartTimer()
		for j := 1; j < 512; j++ {
			if _, err := tr.Split(randPoint(r, 5), OwnerID(j)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkOwnerAt(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := buildRandomTree(r, 5, 4096)
	pts := make([]Point, 256)
	for i := range pts {
		pts[i] = randPoint(r, 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.OwnerAt(pts[i%len(pts)])
	}
}

func BenchmarkNeighbors(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := buildRandomTree(r, 3, 2048)
	owners := tr.Owners()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Neighbors(owners[i%len(owners)])
	}
}
