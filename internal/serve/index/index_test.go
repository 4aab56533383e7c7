package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/vector"
)

// randPopulation builds n records ascending by node id with
// availabilities drawn under cmax.
func randPopulation(rng *rand.Rand, n int, cmax vector.Vec) []proto.Record {
	recs := make([]proto.Record, n)
	for i := range recs {
		a := vector.New(cmax.Dim())
		for d := range a {
			a[d] = cmax[d] * rng.Float64()
			if rng.Intn(8) == 0 {
				a[d] = 0 // exact-zero edges: score ties, flat dimensions
			}
		}
		recs[i] = proto.Record{Node: overlay.NodeID(i * 2), Avail: a, Expires: never}
	}
	return recs
}

// bruteTopK is the referee's answer (proto.BestFit) over the records
// the index under test was given, as node ids. The records never
// expire, so the clock BestFit reads them at does not matter.
func bruteTopK(recs []proto.Record, demand, cmax vector.Vec, k int) []overlay.NodeID {
	fits := proto.BestFit(nil, recs, 0, 0, demand, cmax, k)
	out := make([]overlay.NodeID, len(fits))
	for i, f := range fits {
		out[i] = overlay.NodeID(f.ID)
	}
	return out
}

// rankReturned re-ranks the index's (superset) answer the way the
// engine does — exact surplus, node tie-break — and truncates to k.
func rankReturned(f *Flat, entries []int32, demand, cmax vector.Vec, k int) []overlay.NodeID {
	type cand struct {
		node    overlay.NodeID
		surplus float64
	}
	cands := make([]cand, 0, len(entries))
	for _, e := range entries {
		cands = append(cands, cand{f.NodeAt(e), f.Row(e).Surplus(demand, cmax)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].surplus != cands[j].surplus {
			return cands[i].surplus < cands[j].surplus
		}
		return cands[i].node < cands[j].node
	})
	if k > 0 && len(cands) > k {
		cands = cands[:k]
	}
	out := make([]overlay.NodeID, len(cands))
	for i, c := range cands {
		out[i] = c.node
	}
	return out
}

// TestSearchMatchesLinear is the index-vs-linear property test: over
// randomized populations, demands and k, the index's
// re-ranked answer must be identical — same nodes, same order — to
// the brute-force linear ranking, on either scan kernel.
func TestSearchMatchesLinear(t *testing.T) { eachKernel(t, searchMatchesLinear) }

func searchMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		dims := 1 + rng.Intn(4)
		cmax := vector.New(dims)
		for d := range cmax {
			cmax[d] = 1 + 20*rng.Float64()
		}
		if rng.Intn(6) == 0 {
			cmax[rng.Intn(dims)] = 0 // unscored dimension
		}
		recs := randPopulation(rng, rng.Intn(120), cmax)
		f := Build(recs, cmax)

		for q := 0; q < 20; q++ {
			demand := vector.New(dims)
			for d := range demand {
				demand[d] = cmax[d] * rng.Float64() * 0.9
				if rng.Intn(8) == 0 {
					demand[d] = 0
				}
			}
			// Half the demands copy a record's availability exactly,
			// forcing score == D boundary hits.
			if rng.Intn(2) == 0 && len(recs) > 0 {
				demand = recs[rng.Intn(len(recs))].Avail.Clone()
			}
			k := rng.Intn(12) // 0 = unlimited
			got, visited := f.Search(nil, demand, k)
			if visited > len(recs) {
				t.Fatalf("visited %d of %d records", visited, len(recs))
			}
			want := bruteTopK(recs, demand, cmax, k)
			ranked := rankReturned(f, got, demand, cmax, k)
			if len(ranked) != len(want) {
				t.Fatalf("trial %d q %d: got %d ranked (%v), want %d (%v)",
					trial, q, len(ranked), ranked, len(want), want)
			}
			for i := range want {
				if ranked[i] != want[i] {
					t.Fatalf("trial %d q %d pos %d: got %v, want %v",
						trial, q, i, ranked, want)
				}
			}
		}
	}
}

// TestSearchSubLinear: on a large uniform population with a demanding
// query, the scan must visit far fewer entries than a linear pass.
func TestSearchSubLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cmax := vector.Of(10, 10, 10, 10)
	n := 20000
	recs := make([]proto.Record, n)
	for i := range recs {
		a := vector.New(4)
		for d := range a {
			a[d] = cmax[d] * rng.Float64()
		}
		recs[i] = proto.Record{Node: overlay.NodeID(i), Avail: a, Expires: never}
	}
	f := Build(recs, cmax)
	total := 0
	for q := 0; q < 100; q++ {
		demand := vector.New(4)
		for d := range demand {
			demand[d] = cmax[d] * rng.Float64() * 0.6
		}
		nodes, visited := f.Search(nil, demand, 8)
		total += visited
		want := bruteTopK(recs, demand, cmax, 8)
		ranked := rankReturned(f, nodes, demand, cmax, 8)
		for i := range want {
			if i >= len(ranked) || ranked[i] != want[i] {
				t.Fatalf("q %d: ranked %v, want %v", q, ranked, want)
			}
		}
	}
	if avg := float64(total) / 100; avg > float64(n)/5 {
		t.Fatalf("avg %.0f entries visited per query on %d records — not sub-linear", avg, n)
	}
}

// TestCornerBoundStopsOnTheCorner pins the query cache's fill scan: a
// scan at a low demand under a Bound with a higher corner keeps only the
// scores of matches dominating the corner, and reports every record
// dominating the low demand up to Cutoff of the k-th of them —
// what brute force over the records says those are.
func TestCornerBoundStopsOnTheCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := range 200 {
		dims := 1 + rng.Intn(4)
		cmax := vector.New(dims)
		for d := range cmax {
			cmax[d] = 1 + 20*rng.Float64()
		}
		recs := randPopulation(rng, rng.Intn(400), cmax)
		f := Build(recs, cmax)
		lo, corner := vector.New(dims), vector.New(dims)
		for d := range lo {
			lo[d] = cmax[d] * rng.Float64() * 0.6
			corner[d] = lo[d] + cmax[d]*0.1*rng.Float64()
		}
		k := 1 + rng.Intn(5)
		var scratch [8]float64
		bound := NewBound(k, corner, scratch[:])
		reported := map[overlay.NodeID]bool{}
		for c := f.Seek(lo); !c.Done(); {
			entries, _ := c.Step(nil, &bound)
			for _, e := range entries {
				reported[f.NodeAt(e)] = true
			}
		}
		var scores []float64
		for _, r := range recs {
			if r.Avail.Dominates(corner) {
				scores = append(scores, f.inv.Score(r.Avail))
			}
		}
		sort.Float64s(scores)
		kth, ok := bound.Kth()
		if ok != (len(scores) >= k) || ok && kth != scores[k-1] {
			t.Fatalf("trial %d: Kth = %v, %v; the corner's %d-th score of %d is what brute force gives", trial, kth, ok, k, len(scores))
		}
		for _, r := range recs {
			match := r.Avail.Dominates(lo)
			if match && f.inv.Score(r.Avail) <= Cutoff(kth) && !reported[r.Node] {
				t.Fatalf("trial %d: node %d dominates the demand within the cutoff, not reported", trial, r.Node)
			}
			if reported[r.Node] && !match {
				t.Fatalf("trial %d: node %d reported, not a match", trial, r.Node)
			}
		}
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	f := Build(nil, vector.Of(1, 1))
	if got, visited := f.Search(nil, vector.Of(0.5, 0.5), 3); len(got) != 0 || visited != 0 {
		t.Fatalf("empty index returned %v (visited %d)", got, visited)
	}
	if f.Len() != 0 {
		t.Fatalf("empty index Len = %d", f.Len())
	}
	// All-zero cmax: every score is 0, search degenerates to a scan.
	recs := []proto.Record{
		{Node: 1, Avail: vector.Of(3, 3), Expires: never},
		{Node: 2, Avail: vector.Of(1, 1), Expires: never},
	}
	z := Build(recs, vector.Of(0, 0))
	got, _ := z.Search(nil, vector.Of(2, 2), 0)
	if len(got) != 1 || z.NodeAt(got[0]) != 1 {
		t.Fatalf("zero-scale search returned %v, want [node 1]", got)
	}
	if math.IsNaN(z.first[0]) {
		t.Fatal("zero-scale score is NaN")
	}
}
