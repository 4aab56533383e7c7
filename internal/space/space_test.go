package space

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnitZone(t *testing.T) {
	z := UnitZone(3)
	if z.Dim() != 3 {
		t.Fatalf("Dim = %d", z.Dim())
	}
	if z.Volume() != 1 {
		t.Errorf("Volume = %v", z.Volume())
	}
	if !z.Contains(Point{0, 0, 0}) {
		t.Error("unit zone must contain the origin")
	}
	if z.Contains(Point{1, 0, 0}) {
		t.Error("unit zone is half-open: must not contain coordinate 1")
	}
	if !z.Contains(Point{0.999, 0.5, 0.001}) {
		t.Error("interior point not contained")
	}
}

func TestZoneCenterSideVolume(t *testing.T) {
	z := Zone{Lo: Point{0, 0.5}, Hi: Point{0.5, 1}}
	if !z.Center().Equal(Point{0.25, 0.75}) {
		t.Errorf("Center = %v", z.Center())
	}
	if z.Side(0) != 0.5 || z.Side(1) != 0.5 {
		t.Errorf("Side = %v, %v", z.Side(0), z.Side(1))
	}
	if z.Volume() != 0.25 {
		t.Errorf("Volume = %v", z.Volume())
	}
}

func TestZoneSplit(t *testing.T) {
	z := UnitZone(2)
	lo, hi := z.Split(0)
	if !lo.Equal(Zone{Lo: Point{0, 0}, Hi: Point{0.5, 1}}) {
		t.Errorf("lower = %v", lo)
	}
	if !hi.Equal(Zone{Lo: Point{0.5, 0}, Hi: Point{1, 1}}) {
		t.Errorf("upper = %v", hi)
	}
	if lo.Volume()+hi.Volume() != z.Volume() {
		t.Error("split does not conserve volume")
	}
	if lo.Overlaps(hi) {
		t.Error("halves overlap")
	}
	// The halves share the bound they do not move and own the one
	// they do; z itself is untouched.
	if &lo.Lo[0] != &z.Lo[0] || &hi.Hi[0] != &z.Hi[0] {
		t.Error("halves copied a bound they do not change")
	}
	if &lo.Hi[0] == &z.Hi[0] || &hi.Lo[0] == &z.Lo[0] || &lo.Hi[0] == &hi.Lo[0] {
		t.Error("a moved bound aliases another zone's")
	}
	if !z.Equal(UnitZone(2)) {
		t.Errorf("Split wrote to its receiver: %v", z)
	}
}

func TestZoneSplitAllocatesTwoBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	z := UnitZone(5)
	var lo, hi Zone
	if n := testing.AllocsPerRun(200, func() { lo, hi = z.Split(3) }); n != 2 {
		t.Errorf("Zone.Split allocates %v objects, want 2", n)
	}
	_, _ = lo, hi
}

func TestZoneOverlaps(t *testing.T) {
	a := Zone{Lo: Point{0, 0}, Hi: Point{0.5, 0.5}}
	b := Zone{Lo: Point{0.5, 0}, Hi: Point{1, 0.5}} // touches a
	c := Zone{Lo: Point{0.25, 0.25}, Hi: Point{0.75, 0.75}}
	if a.Overlaps(b) {
		t.Error("touching zones must not overlap (open interiors)")
	}
	if !a.ClosureIntersects(b) {
		t.Error("touching zones must intersect in closure")
	}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Error("genuinely overlapping zones not detected")
	}
}

func TestOverlapsRange(t *testing.T) {
	z := Zone{Lo: Point{0.25, 0.25}, Hi: Point{0.5, 0.5}}
	if !z.OverlapsRange(Point{0.3, 0.3}, Point{1, 1}) {
		t.Error("range through interior not detected")
	}
	if !z.OverlapsRange(Point{0.49999, 0.49999}, Point{1, 1}) {
		t.Error("range clipping the corner not detected")
	}
	if z.OverlapsRange(Point{0.5, 0.5}, Point{1, 1}) {
		t.Error("range starting at the open upper bound should not hit")
	}
	// Closed lower test: a range ending exactly at z.Lo does hit.
	if !z.OverlapsRange(Point{0, 0}, Point{0.25, 0.25}) {
		t.Error("range ending at Lo corner should hit (closed range)")
	}
}

func TestAdjacentTo(t *testing.T) {
	a := Zone{Lo: Point{0, 0}, Hi: Point{0.5, 0.5}}
	b := Zone{Lo: Point{0.5, 0}, Hi: Point{1, 0.5}}     // +dim0 of a
	c := Zone{Lo: Point{0, 0.5}, Hi: Point{0.5, 1}}     // +dim1 of a
	d := Zone{Lo: Point{0.5, 0.5}, Hi: Point{1, 1}}     // corner contact with a
	e := Zone{Lo: Point{0.75, 0}, Hi: Point{1, 0.5}}    // gap from a
	f := Zone{Lo: Point{0.5, 0.25}, Hi: Point{1, 0.75}} // partial-overlap neighbor of a

	if adj, ok := a.AdjacentTo(b); !ok || adj.Dim != 0 || !adj.Positive {
		t.Errorf("a-b adjacency = %+v, %v", adj, ok)
	}
	if adj, ok := b.AdjacentTo(a); !ok || adj.Dim != 0 || adj.Positive {
		t.Errorf("b-a adjacency = %+v, %v", adj, ok)
	}
	if adj, ok := a.AdjacentTo(c); !ok || adj.Dim != 1 || !adj.Positive {
		t.Errorf("a-c adjacency = %+v, %v", adj, ok)
	}
	if _, ok := a.AdjacentTo(d); ok {
		t.Error("corner contact must not be adjacency")
	}
	if _, ok := a.AdjacentTo(e); ok {
		t.Error("gapped zones must not be adjacent")
	}
	if adj, ok := a.AdjacentTo(f); !ok || adj.Dim != 0 || !adj.Positive {
		t.Errorf("a-f adjacency = %+v, %v", adj, ok)
	}
	if _, ok := a.AdjacentTo(a); ok {
		t.Error("a zone is not its own neighbor")
	}
}

func TestIsNegativeDirectionOf(t *testing.T) {
	hi := Zone{Lo: Point{0.5, 0.5}, Hi: Point{1, 1}}
	lo := Zone{Lo: Point{0, 0}, Hi: Point{0.5, 0.5}}
	mid := Zone{Lo: Point{0.25, 0.25}, Hi: Point{0.75, 0.75}}
	if !lo.IsNegativeDirectionOf(hi) {
		t.Error("strictly-below zone should be negative direction")
	}
	if hi.IsNegativeDirectionOf(lo) {
		t.Error("strictly-above zone must not be negative direction")
	}
	if !mid.IsNegativeDirectionOf(hi) {
		t.Error("overlapping zone counts as negative direction")
	}
	if !lo.IsNegativeDirectionOf(mid) {
		t.Error("below-or-overlapping zone counts as negative direction")
	}
}

func TestPointHelpers(t *testing.T) {
	p := Point{0.1, 0.2}
	q := p.Clone()
	q[0] = 0.9
	if p[0] != 0.1 {
		t.Error("Clone shares storage")
	}
	if !p.InUnitCube() {
		t.Error("interior point reported outside")
	}
	if (Point{1, 0}).InUnitCube() {
		t.Error("coordinate 1 is outside the half-open cube")
	}
	if (Point{-0.01, 0}).InUnitCube() {
		t.Error("negative coordinate is outside")
	}
	if p.String() == "" || UnitZone(2).String() == "" {
		t.Error("String must be non-empty")
	}
}

// Property: splitting conserves volume and the halves partition the
// parent exactly along the chosen dimension.
func TestSplitProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 1 + r.Intn(5)
		z := UnitZone(d)
		// Apply a few random splits, keeping a random half each time.
		for i := 0; i < 8; i++ {
			dim := r.Intn(d)
			lo, hi := z.Split(dim)
			if lo.Overlaps(hi) {
				return false
			}
			if lo.Volume()+hi.Volume() > z.Volume()*(1+1e-12) ||
				lo.Volume()+hi.Volume() < z.Volume()*(1-1e-12) {
				return false
			}
			if adj, ok := lo.AdjacentTo(hi); !ok || adj.Dim != dim || !adj.Positive {
				return false
			}
			if r.Intn(2) == 0 {
				z = lo
			} else {
				z = hi
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: adjacency is symmetric with mirrored direction.
func TestAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := buildRandomTree(r, 2+r.Intn(3), 24)
		owners := tr.Owners()
		for _, id := range owners {
			for _, nb := range tr.Neighbors(id) {
				back := tr.Neighbors(nb.Owner)
				found := false
				for _, b := range back {
					if b.Owner == id {
						found = true
						if b.Adj.Dim != nb.Adj.Dim || b.Adj.Positive == nb.Adj.Positive {
							return false
						}
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
