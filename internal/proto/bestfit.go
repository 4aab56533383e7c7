package proto

import (
	"cmp"
	"slices"

	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// Fit is one record of a best-fit answer.
type Fit struct {
	// ID is the record's Node or'ed into the base it was ranked under.
	ID uint64
	// Avail is the record's availability (shared, not copied).
	Avail vector.Vec
	// Surplus is Avail's surplus over the demand, normalized by the
	// scale: the smaller, the better the fit.
	Surplus float64
}

// BestFit is the paper's answer to a best-fit range query, written
// once: the referee every faster path to that answer is held against.
// It appends to dst a Fit for every record of recs that is unexpired at
// now and whose availability dominates demand, then sorts dst best fit
// first — ascending surplus, ties broken by ascending ID — and cuts it
// to k (k <= 0: no cut). A record's ID is its Node or'ed into base, so
// one dst ranks the records of several holders, each read at its own
// clock: call BestFit once per holder with its own base (a shard's bits
// of a global id, say).
func BestFit(dst []Fit, recs []Record, now sim.Time, base uint64, demand, scale vector.Vec, k int) []Fit {
	for _, r := range recs {
		if !r.Expired(now) && r.Qualifies(demand) {
			dst = append(dst, Fit{ID: base | uint64(uint32(r.Node)), Avail: r.Avail, Surplus: r.Avail.Surplus(demand, scale)})
		}
	}
	slices.SortFunc(dst, func(a, b Fit) int {
		if c := cmp.Compare(a.Surplus, b.Surplus); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if k > 0 && len(dst) > k {
		dst = dst[:k]
	}
	return dst
}
