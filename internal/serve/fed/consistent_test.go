package fed_test

import (
	"math/rand/v2"
	"testing"
	"time"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/serve/fed"
	"pidcan/internal/vector"
)

// consistentRig is one service under the consistent-query contract,
// with a per-placement count of the consistent queries it ran.
type consistentRig struct {
	svc       placed
	places    int
	consulted func() []uint64
}

var consistentCMax = vector.Of(10, 10, 10)

func consistentCfg(shards int, seed uint64) serve.Config {
	return serve.Config{
		Shards:        shards,
		NodesPerShard: 12,
		Seed:          seed,
		CMax:          consistentCMax,
		FlushInterval: 5 * time.Millisecond,
	}
}

// A shard counts a consistent query among its applied ops; no other
// op reaches it while a round of queries runs.
func consistentEngineRig(t *testing.T) *consistentRig {
	eng, err := pidcan.NewEngine(consistentCfg(3, 11))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return &consistentRig{svc: eng, places: 3, consulted: func() []uint64 {
		var n []uint64
		for _, s := range eng.Stats().Shards {
			n = append(n, s.OpsApplied)
		}
		return n
	}}
}

// Two in-process members of two shards each; a member counts the
// consistent queries the router sent it.
func consistentRouterRig(t *testing.T) *consistentRig {
	var (
		engs  []*serve.Engine
		addrs [][]string
	)
	for m := 0; m < 2; m++ {
		mb := startMember(t, consistentCfg(2, uint64(21+m)))
		engs, addrs = append(engs, mb.eng), append(addrs, []string{mb.addr})
	}
	r := newRouter(t, fed.Config{Members: addrs, CMax: consistentCMax, SummaryRefresh: -1})
	return &consistentRig{svc: r, places: 2, consulted: func() []uint64 {
		var n []uint64
		for _, e := range engs {
			n = append(n, e.Stats().Consistent)
		}
		return n
	}}
}

// TestConsistentHardContract holds every consistent answer, on an
// engine over real clusters and on a router over two members, to what
// the protocol guarantees whatever it finds: each candidate dominates
// the demand and is an alive node named by its external id, at most K
// of them, none twice, in ascending surplus, from one placement — and
// len(places) queries in a row consult each placement once. Nodes
// migrate, leave and join between rounds, so physical and external
// ids differ and departed nodes exist. Seeded; run it with -race.
func TestConsistentHardContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *consistentRig
	}{{"engine", consistentEngineRig}, {"router", consistentRouterRig}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			checkConsistentContract(t, tc.build(t), rand.New(rand.NewPCG(7, 0xc0de)))
		})
	}
}

func checkConsistentContract(t *testing.T, r *consistentRig, rng *rand.Rand) {
	randAvail := func() vector.Vec {
		v := vector.New(consistentCMax.Dim())
		for i, c := range consistentCMax {
			v[i] = c * rng.Float64()
		}
		return v
	}
	for _, id := range r.svc.Nodes() {
		if err := r.svc.Update(id, randAvail(), true); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 300
	var answered, cands int
	for round := 0; round < rounds; round++ {
		// Churn between rounds: a migration, and every few rounds a
		// leave and a join.
		ids := r.svc.Nodes()
		if err := r.svc.Migrate(ids[rng.IntN(len(ids))], rng.IntN(r.places)); err != nil {
			t.Fatalf("round %d: migrate: %v", round, err)
		}
		if round%4 == 3 {
			if err := r.svc.Leave(ids[rng.IntN(len(ids))]); err != nil {
				t.Fatalf("round %d: leave: %v", round, err)
			}
			if _, err := r.svc.Join(randAvail()); err != nil {
				t.Fatalf("round %d: join: %v", round, err)
			}
		}
		alive := map[serve.GlobalID]bool{}
		for _, id := range r.svc.Nodes() {
			alive[id] = true
		}

		before := r.consulted()
		for q := 0; q < r.places; q++ {
			demand := randAvail().Scale(0.4)
			k := 1 + rng.IntN(8)
			resp, err := r.svc.Query(serve.QueryRequest{Demand: demand, K: k, Consistent: true})
			if err != nil {
				t.Fatalf("round %d: demand %v k %d: %v", round, demand, k, err)
			}
			if resp.ShardsQueried != 1 {
				t.Errorf("round %d: demand %v: ShardsQueried %d, want 1", round, demand, resp.ShardsQueried)
			}
			if len(resp.Candidates) > k {
				t.Errorf("round %d: demand %v: %d candidates, K %d", round, demand, len(resp.Candidates), k)
			}
			if len(resp.Candidates) > 0 {
				answered++
			}
			cands += len(resp.Candidates)
			seen := map[serve.GlobalID]bool{}
			for i, c := range resp.Candidates {
				if !c.Avail.Dominates(demand) {
					t.Errorf("round %d: candidate %v avail %v does not dominate demand %v", round, c.Node, c.Avail, demand)
				}
				if !alive[c.Node] {
					t.Errorf("round %d: candidate %v is not an alive node's external id", round, c.Node)
				}
				if seen[c.Node] {
					t.Errorf("round %d: candidate %v appears twice", round, c.Node)
				}
				seen[c.Node] = true
				if i > 0 && c.Surplus < resp.Candidates[i-1].Surplus {
					t.Errorf("round %d: surplus %v after %v: not ascending", round, c.Surplus, resp.Candidates[i-1].Surplus)
				}
			}
		}
		after := r.consulted()
		for p := range after {
			if d := after[p] - before[p]; d != 1 {
				t.Errorf("round %d: placement %d consulted %d times by %d consecutive queries, want once (%v -> %v)",
					round, p, d, r.places, before, after)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("%d of %d queries answered, %d candidates", answered, rounds*r.places, cands)
}
