package fed

import (
	"slices"
	"testing"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/serve"
)

// TestRouterNodesMergeKeepsEveryMembersAnswer: the node listing is the
// union of the members' answers, not a ranked top-K of it — two
// members of 40 000 nodes list 80 000 ids, not the 65 535 a u16 K
// would cut a ranked merge to — and a node two members both report
// (caught mid-move) is listed once, under its stable id.
func TestRouterNodesMergeKeepsEveryMembersAnswer(t *testing.T) {
	const per = 40_000
	r := &Router{
		scatterTimeout: time.Second,
		fwd:            serve.NewForwardTable(time.Minute, memberOf, nil),
	}
	moved := ID(0, serve.Global(0, 3))           // joined on member 0 ...
	movedNow := ID(1, serve.Global(0, per+1000)) // ... lives on member 1
	r.fwd.Repoint(moved, moved, movedNow)
	leg := func(member int, extra ...serve.GlobalID) legCall {
		return legCall{collect: func(error) (serve.PlacementLeg, error) {
			cands := make([]serve.Candidate, 0, per+len(extra))
			for i := 0; i < per; i++ {
				cands = append(cands, serve.Candidate{Node: ID(member, serve.Global(0, overlay.NodeID(i)))})
			}
			for _, id := range extra {
				cands = append(cands, serve.Candidate{Node: id})
			}
			return serve.PlacementLeg{Cands: cands, Queried: 1}, nil
		}}
	}
	// Member 0's stale snapshot still shows the moved node at home.
	ids, err := r.mergeNodes([]legCall{leg(0), leg(1, movedNow)})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2*per {
		t.Fatalf("listing holds %d ids, want %d", len(ids), 2*per)
	}
	if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
		t.Fatal("listing is not ascending and distinct")
	}
	if slices.Contains(ids, movedNow) || !slices.Contains(ids, moved) {
		t.Fatalf("moved node must be listed as %v, never as %v", moved, movedNow)
	}
}
