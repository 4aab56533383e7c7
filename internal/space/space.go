// Package space implements the geometry of the CAN coordinate space:
// points of the unit cube [0,1)^d, half-open hyper-rectangular zones,
// and the binary partition tree that CAN uses to split zones on node
// join and re-merge them on node departure ("binary partition tree
// based background zone reassignment", paper §IV.B).
//
// The space is bounded, not toroidal: the paper's axes are resource
// magnitudes and index diffusion runs "until reaching the edge of the
// CAN space" (§III.A), so there is no wraparound.
//
// Layout: the tree is arrays, not pointers. Its nodes are
// pointer-free values in one slice, linked by int32 slot numbers; a
// node's two children are adjacent slots, allocated by a split and
// released by a merge as one pair, and released pairs are reused.
// Zones are a parallel slice by slot, and the leaf index is a slice
// by owner id. Zones share the bounds a split does not move, and a
// split allocates the two it does move as one object — or, in a
// one-pass build (Tree.SplitAll), carves them from one array for all
// its splits — so a zone's bounds are never written once the zone
// exists.
package space

import (
	"fmt"
	"strings"
)

// Point is a location in the unit cube [0,1)^d.
type Point []float64

// Clone returns a copy of p sharing no storage.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports componentwise equality.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// InUnitCube reports whether every coordinate lies in [0,1).
func (p Point) InUnitCube() bool {
	for _, x := range p {
		if x < 0 || x >= 1 {
			return false
		}
	}
	return true
}

func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	b.WriteByte(')')
	return b.String()
}

// Zone is a half-open hyper-rectangle [Lo[k], Hi[k]) per dimension.
// Every CAN node owns exactly one zone; the zones of all alive nodes
// tile the unit cube exactly. A zone is immutable once built: Lo and
// Hi are never written after construction, so zones may share them.
type Zone struct {
	Lo, Hi Point
}

// UnitZone returns the whole space [0,1)^d.
func UnitZone(d int) Zone {
	lo := make(Point, d)
	hi := make(Point, d)
	for i := range hi {
		hi[i] = 1
	}
	return Zone{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the zone.
func (z Zone) Dim() int { return len(z.Lo) }

// Contains reports whether point p lies inside z (half-open test).
func (z Zone) Contains(p Point) bool {
	for i := range p {
		if p[i] < z.Lo[i] || p[i] >= z.Hi[i] {
			return false
		}
	}
	return true
}

// Center returns the midpoint of z.
func (z Zone) Center() Point {
	c := make(Point, z.Dim())
	for i := range c {
		c[i] = (z.Lo[i] + z.Hi[i]) / 2
	}
	return c
}

// Volume returns the d-dimensional volume of z.
func (z Zone) Volume() float64 {
	v := 1.0
	for i := range z.Lo {
		v *= z.Hi[i] - z.Lo[i]
	}
	return v
}

// Side returns the extent of z along dimension dim.
func (z Zone) Side(dim int) float64 { return z.Hi[dim] - z.Lo[dim] }

// Equal reports whether the two zones have identical bounds.
func (z Zone) Equal(o Zone) bool { return z.Lo.Equal(o.Lo) && z.Hi.Equal(o.Hi) }

// Overlaps reports whether the open interiors of z and o intersect.
func (z Zone) Overlaps(o Zone) bool {
	for i := range z.Lo {
		if z.Hi[i] <= o.Lo[i] || o.Hi[i] <= z.Lo[i] {
			return false
		}
	}
	return true
}

// ClosureIntersects reports whether the closed hulls of z and o
// intersect (they may merely touch). Used for neighbor search pruning.
func (z Zone) ClosureIntersects(o Zone) bool {
	for i := range z.Lo {
		if z.Hi[i] < o.Lo[i] || o.Hi[i] < z.Lo[i] {
			return false
		}
	}
	return true
}

// OverlapsRange reports whether z intersects the closed query range
// [lo, hi] — the test INSCAN-RQ uses to enumerate the responsible
// nodes of a multi-dimensional range query.
func (z Zone) OverlapsRange(lo, hi Point) bool {
	for i := range z.Lo {
		if z.Hi[i] <= lo[i] || hi[i] < z.Lo[i] {
			return false
		}
	}
	return true
}

// Split cuts z in half along dimension dim, returning the lower and
// upper halves. The cut is at the midpoint, so repeated splits keep
// coordinates exact dyadic rationals. Only the two bounds that move
// are new; lower shares z.Lo and upper shares z.Hi.
func (z Zone) Split(dim int) (lower, upper Zone) {
	return z.splitInto(dim, z.Hi.Clone(), z.Lo.Clone())
}

// splitInto is Split with the two bounds that move supplied: hi and
// lo are fresh copies of z.Hi and z.Lo, and become lower.Hi and
// upper.Lo.
func (z Zone) splitInto(dim int, hi, lo Point) (lower, upper Zone) {
	mid := (z.Lo[dim] + z.Hi[dim]) / 2
	hi[dim], lo[dim] = mid, mid
	return Zone{Lo: z.Lo, Hi: hi}, Zone{Lo: lo, Hi: z.Hi}
}

// Adjacency describes how two zones abut.
type Adjacency struct {
	Dim      int  // the single non-overlapped dimension
	Positive bool // true if the other zone lies at larger coordinates
}

// AdjacentTo reports whether o is an adjacent neighbor of z per the
// CAN definition (paper §III.A): the zones abut along exactly one
// dimension and their spans overlap in every other dimension. If so,
// it returns along which dimension and whether o is on the positive
// side of z.
func (z Zone) AdjacentTo(o Zone) (Adjacency, bool) {
	adjDim := -1
	positive := false
	for i := range z.Lo {
		touchHi := z.Hi[i] == o.Lo[i]
		touchLo := o.Hi[i] == z.Lo[i]
		overlap := z.Hi[i] > o.Lo[i] && o.Hi[i] > z.Lo[i]
		switch {
		case overlap:
			continue
		case touchHi || touchLo:
			if adjDim != -1 {
				return Adjacency{}, false // touching along 2+ dims: corner contact only
			}
			adjDim = i
			positive = touchHi
		default:
			return Adjacency{}, false // gap along dimension i
		}
	}
	if adjDim == -1 {
		return Adjacency{}, false // full overlap: same zone (or nested) — not neighbors
	}
	return Adjacency{Dim: adjDim, Positive: positive}, true
}

// IsNegativeDirectionOf reports whether z is a negative-direction node
// of o (paper §III.A): along every dimension, z's range is overlapped
// with or entirely below o's range. Index diffusion only ever flows to
// negative-direction nodes.
func (z Zone) IsNegativeDirectionOf(o Zone) bool {
	for i := range z.Lo {
		overlap := z.Hi[i] > o.Lo[i] && o.Hi[i] > z.Lo[i]
		below := z.Hi[i] <= o.Lo[i]
		if !overlap && !below {
			return false
		}
	}
	return true
}

func (z Zone) String() string {
	return fmt.Sprintf("[%v..%v)", z.Lo, z.Hi)
}
