package fed_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"pidcan/internal/proto"
	"pidcan/internal/serve"
	"pidcan/internal/serve/fed"
	"pidcan/internal/vector"
)

// prunePair is the property-test harness: a router pruning with
// manually-driven summaries over in-process members, whose records
// the referee (proto.BestFit) answers from directly. Any demand the
// router answers differently is a pruning soundness bug.
type prunePair struct {
	members []*member
	pruner  *fed.Router
}

func newPrunePair(t *testing.T, n int, ttl time.Duration) *prunePair {
	t.Helper()
	p := &prunePair{}
	addrs := make([][]string, n)
	for i := 0; i < n; i++ {
		m := startMember(t, testCfg(uint64(100+i)))
		p.members = append(p.members, m)
		addrs[i] = []string{m.addr}
	}
	p.pruner = newRouter(t, fed.Config{
		Members:        addrs,
		SummaryTTL:     ttl,
		SummaryRefresh: -1, // the test drives RefreshSummaries itself
	})
	return p
}

// join adds a node straight to member m, behind the router's back: its
// summary does not learn of it.
func (p *prunePair) join(t *testing.T, m int, avail vector.Vec) {
	t.Helper()
	if _, err := p.members[m].eng.Join(avail); err != nil {
		t.Fatalf("join member %d: %v", m, err)
	}
}

// askBoth queries the router with an uncached request and demands the
// referee's answer over every member's records, byte for byte: same
// candidates under the router's ids, same order, same availabilities
// and surpluses. Pruning only ever removes members provably unable to
// contribute a candidate, so ANY divergence is a soundness violation.
func (p *prunePair) askBoth(t *testing.T, demand vector.Vec, k int) serve.QueryResponse {
	t.Helper()
	got, err := p.pruner.Query(serve.QueryRequest{Demand: demand, K: k, NoCache: true})
	if err != nil {
		t.Fatalf("pruning router: query %v: %v", demand, err)
	}
	var want []proto.Fit
	for m, mem := range p.members {
		for i := range mem.eng.Shards() {
			snap, err := mem.eng.Snapshot(i)
			if err != nil {
				t.Fatal(err)
			}
			want = proto.BestFit(want, snap.Records, snap.Taken, uint64(fed.ID(m, serve.Global(i, 0))), demand, mem.eng.Config().CMax, k)
		}
	}
	if len(got.Candidates) != len(want) {
		t.Fatalf("demand %v: pruned scatter returned %d candidates, the referee %d\npruned:  %+v\nreferee: %+v",
			demand, len(got.Candidates), len(want), got.Candidates, want)
	}
	for i, g := range got.Candidates {
		if w := want[i]; uint64(g.Node) != w.ID || g.Surplus != w.Surplus || !g.Avail.Equal(w.Avail) {
			t.Fatalf("demand %v: candidate %d diverged\npruned:  %+v\nreferee: %+v", demand, i, g, w)
		}
	}
	return got
}

func (p *prunePair) prunerStats() fed.Stats { return p.pruner.StatsPayload().(fed.Stats) }

// TestPrunedScatterEquivalence is the pruning soundness property
// test: across randomized skewed populations and randomized demands,
// a pruned scatter answers byte-identically to the full fan-out —
// while actually pruning legs (the skew guarantees demands no
// low-capacity member can satisfy).
func TestPrunedScatterEquivalence(t *testing.T) {
	p := newPrunePair(t, 3, time.Hour)
	rng := rand.New(rand.NewPCG(42, 7))

	// Skewed populations: member 0 publishes high availabilities,
	// member 1 only low ones, member 2 mid-range — so demands above a
	// member's ceiling are provably unsatisfiable there.
	ceil := []float64{10, 3, 6}
	for mi, c := range ceil {
		for j := 0; j < 12; j++ {
			p.join(t, mi, vector.Of(rng.Float64()*c, rng.Float64()*c))
		}
	}
	p.pruner.RefreshSummaries()

	for trial := 0; trial < 300; trial++ {
		demand := vector.Of(rng.Float64()*11, rng.Float64()*11)
		p.askBoth(t, demand, 1+rng.IntN(8))
	}
	// Demands beyond every member's ceiling: every leg pruned, an
	// honest zero-candidate miss with zero network hops.
	p.askBoth(t, vector.Of(10.5, 10.5), 4)

	st := p.prunerStats()
	if st.LegsPruned == 0 {
		t.Fatalf("skewed populations produced no pruned legs: %+v", st)
	}
	if st.LegsSent == 0 {
		t.Fatalf("no legs sent: %+v", st)
	}
	t.Logf("legs sent %d, pruned %d", st.LegsSent, st.LegsPruned)
}

// TestPruneStaleSummaryFallsBack pins the staleness fallback: with a
// nanosecond TTL every summary is expired by query time, so nothing
// may be pruned and results still match the full fan-out.
func TestPruneStaleSummaryFallsBack(t *testing.T) {
	p := newPrunePair(t, 2, time.Nanosecond)
	rng := rand.New(rand.NewPCG(3, 9))
	for mi, c := range []float64{9, 2} {
		for j := 0; j < 6; j++ {
			p.join(t, mi, vector.Of(rng.Float64()*c, rng.Float64()*c))
		}
	}
	p.pruner.RefreshSummaries()
	time.Sleep(time.Millisecond) // comfortably past the 1ns TTL
	for trial := 0; trial < 50; trial++ {
		p.askBoth(t, vector.Of(rng.Float64()*11, rng.Float64()*11), 4)
	}
	if st := p.prunerStats(); st.LegsPruned != 0 {
		t.Fatalf("stale summaries still pruned %d legs", st.LegsPruned)
	}
}

// TestPruneWriteDirtiesSummary pins the write-invalidation path: a
// write routed to a member after its summary was adopted must dirty
// the summary, so a record the summary never saw is still found.
func TestPruneWriteDirtiesSummary(t *testing.T) {
	p := newPrunePair(t, 2, time.Hour)
	// Member 1 starts low-capacity; its summary proves it useless for
	// big demands.
	if _, err := p.pruner.JoinOn(0, vector.Of(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.pruner.JoinOn(1, vector.Of(2, 2)); err != nil {
		t.Fatal(err)
	}
	p.pruner.RefreshSummaries()
	if resp := p.askBoth(t, vector.Of(8, 8), 4); len(resp.Candidates) != 0 {
		t.Fatalf("unexpected candidates before the big join: %+v", resp.Candidates)
	}
	if st := p.prunerStats(); st.LegsPruned == 0 {
		t.Fatalf("expected pruning before the dirtying write: %+v", st)
	}
	// Now a big node joins member 1 THROUGH THE PRUNING ROUTER, with
	// no refresh afterwards. The stale summary says member 1 tops out
	// at (2,2) — but the write dirtied it, so the fan-out must reach
	// the member and find the node.
	id, err := p.pruner.JoinOn(1, vector.Of(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	resp := p.askBoth(t, vector.Of(8, 8), 4)
	if len(resp.Candidates) != 1 || resp.Candidates[0].Node != id {
		t.Fatalf("dirtied summary hid the new node: %+v", resp.Candidates)
	}
}

// TestMuxConcurrentScatterSurvivesMemberKill stresses the pipelined
// multiplexer: many goroutines scatter queries and writes while one
// member's listener is killed mid-flight. The mux must not deadlock
// or mis-correlate; after the kill, queries keep answering through
// partial merges from the surviving member.
func TestMuxConcurrentScatterSurvivesMemberKill(t *testing.T) {
	a := startMember(t, testCfg(1))
	b := startMember(t, testCfg(2))
	r := newRouter(t, fed.Config{
		Members:        [][]string{{a.addr}, {b.addr}},
		ScatterTimeout: 500 * time.Millisecond,
		SummaryRefresh: 10 * time.Millisecond,
	})
	keep, err := r.JoinOn(0, vector.Of(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.JoinOn(1, vector.Of(8, 8)); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 99))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch {
				case w%4 == 0 && i%8 == 7:
					// Sprinkle writes through the same mux. Errors
					// against the killed member are expected.
					id, err := r.JoinOn(w%2, vector.Of(rng.Float64()*5, rng.Float64()*5))
					if err == nil {
						r.Leave(id)
					}
				default:
					_, err := r.Query(serve.QueryRequest{
						Demand:  vector.Of(rng.Float64()*6, rng.Float64()*6),
						K:       4,
						NoCache: true,
					})
					if err != nil && !errors.Is(err, serve.ErrClosed) {
						select {
						case errc <- fmt.Errorf("worker %d query: %w", w, err):
						default:
						}
					}
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	b.srv.Close() // kill member 1 under concurrent scatter
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		// Whole-gather failures are a bug: a downed member costs its
		// leg (partial merge), never the query.
		t.Fatal(err)
	default:
	}

	// The survivor still answers; its node is still found.
	resp, err := r.Query(serve.QueryRequest{Demand: vector.Of(7, 7), K: 4, NoCache: true})
	if err != nil {
		t.Fatalf("post-kill query: %v", err)
	}
	found := false
	for _, c := range resp.Candidates {
		found = found || c.Node == keep
	}
	if !found {
		t.Fatalf("surviving member's node missing post-kill: %+v", resp.Candidates)
	}
}
