package bench

import (
	"cmp"
	"fmt"
	"slices"

	"pidcan/internal/serve"
	"pidcan/internal/vector"
)

// cand is a response candidate in the shape both the in-process and
// the wire path can be checked in.
type cand struct {
	node    uint64
	surplus float64
	avail   []float64
}

// candsOf appends cs to dst in the common shape.
func candsOf(dst []cand, cs []serve.Candidate) []cand {
	for _, c := range cs {
		dst = append(dst, cand{uint64(c.Node), c.Surplus, c.Avail})
	}
	return dst
}

// checkInvariants checks what must hold of any query response even
// while writes race it and when a cache entry evaluated at its cell's
// demand answered: at most k candidates, best fit first, each one's
// availability dominating the demand, each surplus the exact
// recomputation against the caller's demand.
func checkInvariants(demand []float64, k int, cmax vector.Vec, cs []cand) error {
	if len(cs) > k {
		return fmt.Errorf("%d candidates for k=%d", len(cs), k)
	}
	for i, c := range cs {
		if !vector.Vec(c.avail).Dominates(demand) {
			return fmt.Errorf("candidate %d (node %d) does not dominate the demand", i, c.node)
		}
		if want := vector.Vec(c.avail).Surplus(demand, cmax); c.surplus != want {
			return fmt.Errorf("candidate %d (node %d) surplus %v, recomputed %v", i, c.node, c.surplus, want)
		}
		if i > 0 && compareCands(cs[i-1], c) >= 0 {
			return fmt.Errorf("candidates %d and %d out of best-fit order", i-1, i)
		}
	}
	return nil
}

// compareCands is the engine's ranking: ascending surplus, ids
// breaking ties.
func compareCands(a, b cand) int {
	if c := cmp.Compare(a.surplus, b.surplus); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// bruteForce ranks the k best-fit records dominating demand by a
// linear scan of every shard snapshot's records — the reference the
// indexed read path must equal.
func bruteForce(snaps []*serve.Snapshot, demand []float64, k int, cmax vector.Vec) []cand {
	best := make([]cand, 0, k+1)
	for _, s := range snaps {
		for _, r := range s.Records {
			if !r.Avail.Dominates(demand) {
				continue
			}
			c := cand{uint64(serve.Global(s.Shard, r.Node)), r.Avail.Surplus(demand, cmax), r.Avail}
			if len(best) == k && compareCands(c, best[k-1]) > 0 {
				continue
			}
			at, _ := slices.BinarySearchFunc(best, c, compareCands)
			best = slices.Insert(best, at, c)[:min(len(best)+1, k)]
		}
	}
	return best
}

// sameCands reports the first difference in ids or surpluses.
func sameCands(got, want []cand) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].node != want[i].node || got[i].surplus != want[i].surplus {
			return fmt.Errorf("candidate %d is node %d surplus %v, reference node %d surplus %v",
				i, got[i].node, got[i].surplus, want[i].node, want[i].surplus)
		}
	}
	return nil
}

// snapshots returns every shard's current snapshot.
func snapshots(eng *serve.Engine) []*serve.Snapshot {
	out := make([]*serve.Snapshot, eng.Shards())
	for i := range out {
		out[i], _ = eng.Snapshot(i) // i is in range
	}
	return out
}

// stateOf is the engine's published availability per node.
func stateOf(eng *serve.Engine) map[uint64][]float64 {
	out := map[uint64][]float64{}
	for _, s := range snapshots(eng) {
		for _, r := range s.Records {
			out[uint64(serve.Global(s.Shard, r.Node))] = r.Avail
		}
	}
	return out
}

// checkAcked counts acknowledged writes the state does not hold:
// every node in acked must be present with exactly that availability,
// every node in left must be gone, and the population must be what
// the acknowledged joins and leaves leave of the initial one.
func checkAcked(state, acked map[uint64][]float64, left map[uint64]bool, wantNodes int) (lost int, first error) {
	note := func(err error) {
		lost++
		if first == nil {
			first = err
		}
	}
	for id, want := range acked {
		if got, ok := state[id]; !ok || !slices.Equal(got, want) {
			note(fmt.Errorf("node %d holds %v, last acked write was %v", id, got, want))
		}
	}
	for id := range left {
		if _, ok := state[id]; ok {
			note(fmt.Errorf("node %d still present after its acked leave", id))
		}
	}
	if len(state) != wantNodes {
		note(fmt.Errorf("%d nodes, acked joins and leaves imply %d", len(state), wantNodes))
	}
	return lost, first
}

// sameState counts nodes on which two engines' states differ.
func sameState(a, b map[uint64][]float64) (diff int, first error) {
	for id, av := range a {
		if bv, ok := b[id]; !ok || !slices.Equal(av, bv) {
			diff++
			if first == nil {
				first = fmt.Errorf("node %d: %v vs %v", id, av, bv)
			}
		}
	}
	for id := range b {
		if _, ok := a[id]; !ok {
			diff++
			if first == nil {
				first = fmt.Errorf("node %d only on one side", id)
			}
		}
	}
	return diff, first
}
