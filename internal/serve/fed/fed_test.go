package fed_test

import (
	"math/rand/v2"
	"net"
	"slices"
	"testing"
	"time"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/serve/fed"
	"pidcan/internal/serve/repl"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

func testCfg(seed uint64) serve.Config {
	return serve.Config{
		Shards:        2,
		NodesPerShard: 2,
		Seed:          seed,
		CMax:          vector.Of(10, 10),
		FlushInterval: 5 * time.Millisecond,
	}
}

// member is one federation primary: an engine behind a loopback wire
// listener.
type member struct {
	eng  *serve.Engine
	srv  *wire.Server
	addr string
}

func startMember(t *testing.T, cfg serve.Config) *member {
	t.Helper()
	eng, err := pidcan.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := wire.NewServer(func() serve.Service { return eng }, wire.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &member{eng: eng, srv: srv, addr: ln.Addr().String()}
}

func newRouter(t *testing.T, cfg fed.Config) *fed.Router {
	t.Helper()
	r, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func waitFor(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFedIDRoundTrip(t *testing.T) {
	locals := []serve.GlobalID{
		0,
		serve.Global(0, 1),
		serve.Global(3, 7),
		serve.Global(0xFFFF, 0x7FFFFFFF),
	}
	for _, m := range []int{0, 1, 5, 65534} {
		for _, l := range locals {
			id := fed.ID(m, l)
			gm, gl := fed.SplitID(id)
			if gm != m || gl != l {
				t.Fatalf("SplitID(ID(%d, %v)) = (%d, %v)", m, l, gm, gl)
			}
		}
	}
	// Untagged ids (plain engine ids) split to member -1, so mixed
	// deployments can tell federation ids from single-process ones.
	if m, l := fed.SplitID(serve.Global(2, 9)); m != -1 || l != serve.Global(2, 9) {
		t.Fatalf("untagged id split to (%d, %v), want (-1, unchanged)", m, l)
	}
}

// TestFederationMatchesReferenceEngine is the acceptance property: a
// 2-primary federation reached through the router answers scatter
// queries identically to one reference engine holding the same nodes,
// over the same op sequence.
func TestFederationMatchesReferenceEngine(t *testing.T) {
	a := startMember(t, testCfg(1))
	b := startMember(t, testCfg(2))
	ref, err := pidcan.NewEngine(serve.Config{
		Shards:        4, // same node count as 2 members x 2 shards
		NodesPerShard: 2,
		Seed:          3,
		CMax:          vector.Of(10, 10),
		FlushInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	router := newRouter(t, fed.Config{
		Members: [][]string{{a.addr}, {b.addr}},
		CMax:    vector.Of(10, 10),
	})

	rng := rand.New(rand.NewPCG(41, 0xfed))
	randAvail := func() vector.Vec {
		return vector.Of(10*(0.2+0.8*rng.Float64()), 10*(0.2+0.8*rng.Float64()))
	}
	// check asks the federation each demand uncached and then twice
	// through the members' caches (a fill, then a hit): every answer
	// must be the reference's.
	check := func(step int) {
		demand := vector.Of(5*rng.Float64(), 5*rng.Float64())
		k := 1 + rng.IntN(8)
		want, err := ref.Query(serve.QueryRequest{Demand: demand, K: k, NoCache: true})
		if err != nil {
			t.Fatalf("step %d: reference query: %v", step, err)
		}
		for _, noCache := range []bool{true, false, false} {
			got, err := router.Query(serve.QueryRequest{Demand: demand, K: k, NoCache: noCache})
			if err != nil {
				t.Fatalf("step %d: federated query (NoCache=%v): %v", step, noCache, err)
			}
			if len(got.Candidates) != len(want.Candidates) {
				t.Fatalf("step %d: %d candidates (NoCache=%v), reference %d (demand %v, k %d)",
					step, len(got.Candidates), noCache, len(want.Candidates), demand, k)
			}
			// Node ids necessarily differ (different shard layouts), but
			// the ranked (surplus, avail) sequences must match exactly:
			// the wire round-trips f64s bit-for-bit and both sides run
			// the same best-fit merge. Random avails make surplus ties
			// (which rank by id) a measure-zero event.
			for i := range got.Candidates {
				g, w := got.Candidates[i], want.Candidates[i]
				if g.Surplus != w.Surplus || !slices.Equal(g.Avail, w.Avail) {
					t.Fatalf("step %d: candidate %d = (%v, %v) (NoCache=%v), reference (%v, %v)",
						step, i, g.Surplus, g.Avail, noCache, w.Surplus, w.Avail)
				}
			}
		}
	}

	type pair struct{ r, f serve.GlobalID }
	var live []pair
	for step := 0; step < 300; step++ {
		switch op := rng.IntN(10); {
		case op < 5 || len(live) == 0:
			av := randAvail()
			rid, err := router.Join(av)
			if err != nil {
				t.Fatalf("step %d: federated join: %v", step, err)
			}
			fid, err := ref.Join(av.Clone())
			if err != nil {
				t.Fatalf("step %d: reference join: %v", step, err)
			}
			live = append(live, pair{rid, fid})
		case op < 8:
			p := live[rng.IntN(len(live))]
			av := randAvail()
			if err := router.Update(p.r, av, true); err != nil {
				t.Fatalf("step %d: federated update: %v", step, err)
			}
			if err := ref.Update(p.f, av.Clone(), true); err != nil {
				t.Fatalf("step %d: reference update: %v", step, err)
			}
		default:
			i := rng.IntN(len(live))
			p := live[i]
			if err := router.Leave(p.r); err != nil {
				t.Fatalf("step %d: federated leave: %v", step, err)
			}
			if err := ref.Leave(p.f); err != nil {
				t.Fatalf("step %d: reference leave: %v", step, err)
			}
			live = slices.Delete(live, i, i+1)
		}
		if step%20 == 19 {
			check(step)
		}
	}
}

// TestMigrationDestinationCrashRollsBack kills the destination
// primary between a migration's take and its re-join: the router must
// roll the node back to its source, keeping every old id routable.
func TestMigrationDestinationCrashRollsBack(t *testing.T) {
	a := startMember(t, testCfg(1))
	b := startMember(t, testCfg(2))
	crash := false
	router := newRouter(t, fed.Config{
		Members: [][]string{{a.addr}, {b.addr}},
		CMax:    vector.Of(10, 10),
		AfterTake: func() {
			if crash {
				b.srv.Close()
				b.eng.Close()
			}
		},
	})

	id, err := router.JoinOn(0, vector.Of(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	crash = true
	if err := router.Migrate(id, 1); err == nil {
		t.Fatal("migrate into a crashed destination reported success")
	}
	crash = false
	// Rolled back home: the id still routes to member 0.
	if err := router.Update(id, vector.Of(7, 7), false); err != nil {
		t.Fatalf("update after rolled-back migration: %v", err)
	}
	if got := len(a.eng.Nodes()); got != 5 {
		t.Fatalf("source holds %d nodes after rollback, want 5", got)
	}
	if !slices.Contains(router.Nodes(), id) {
		t.Fatalf("Nodes() lost id %v after rollback", id)
	}
	resp, err := router.Query(serve.QueryRequest{Demand: vector.Of(6.5, 6.5), K: 4, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) == 0 || resp.Candidates[0].Node != id {
		t.Fatalf("rolled-back node missing from candidates: %+v", resp.Candidates)
	}
}

// TestFederationFailoverZeroLoss kills one member's primary, promotes
// its follower, and requires the router to converge onto the promoted
// process with every acked write still served — the federation run of
// the repl package's zero-loss promotion contract. A second router
// over the same two members, which exchanges nothing with the first
// and sees no traffic from the kill until its first write, must
// converge just the same: the epoch on the member's own responses is
// all the fail-over evidence a router needs.
func TestFederationFailoverZeroLoss(t *testing.T) {
	a := startMember(t, testCfg(1))

	// Member B is durable and streams its op-log to follower B2.
	bCfg := testCfg(2)
	bCfg.DataDir = t.TempDir()
	bEng, err := pidcan.NewEngine(bCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bEng.Close() })
	// One listener serves B's wire protocol and its op-log stream.
	replSrv, err := repl.NewServer(bEng, repl.ServerConfig{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replSrv.Close() })
	bSrv := wire.NewServer(func() serve.Service { return bEng }, wire.ServerConfig{})
	bSrv.SetReplSource(replSrv)
	bLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go bSrv.Serve(bLn)
	t.Cleanup(func() { bSrv.Close() })

	fDir := t.TempDir()
	cl, err := repl.NewClient(repl.ClientConfig{
		Primary: bLn.Addr().String(),
		DataDir: fDir,
		Shards:  bCfg.Shards,
		Mount: func() (*serve.Engine, error) {
			fCfg := bCfg
			fCfg.DataDir = fDir
			fCfg.Follower = true
			fCfg.PrimaryAddr = bLn.Addr().String()
			return pidcan.NewEngine(fCfg)
		},
		RetryMin:         20 * time.Millisecond,
		RetryMax:         100 * time.Millisecond,
		HeartbeatTimeout: 500 * time.Millisecond,
		DrainTimeout:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	go cl.Run()
	t.Cleanup(func() { cl.Close() })
	// B2's wire edge is registered as member B's fallback address; it
	// serves whatever engine the repl client has mounted (the
	// follower pre-promotion, the promoted primary after).
	fSrv := wire.NewServer(func() serve.Service {
		if e := cl.Engine(); e != nil {
			return e
		}
		return nil
	}, wire.ServerConfig{})
	fLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fSrv.Serve(fLn)
	t.Cleanup(func() { fSrv.Close() })
	waitFor(t, 5*time.Second, "follower bootstrap", func() bool { return cl.Engine() != nil })

	members := [][]string{{a.addr}, {bLn.Addr().String(), fLn.Addr().String()}}
	router := newRouter(t, fed.Config{Members: members, CMax: vector.Of(10, 10)})
	// No summary loop on the second router: every frame it sends is
	// one the test asks for.
	routerB := newRouter(t, fed.Config{Members: members, CMax: vector.Of(10, 10), SummaryRefresh: -1})

	// Drive acked writes through the router onto both members.
	var acked []serve.GlobalID
	for i := 0; i < 10; i++ {
		for m := 0; m < 2; m++ {
			id, err := router.JoinOn(m, vector.Of(1+float64(i)/2, 1+float64(i)/2))
			if err != nil {
				t.Fatalf("join %d on member %d: %v", i, m, err)
			}
			if err := router.Update(id, vector.Of(2+float64(i)/2, 2), false); err != nil {
				t.Fatalf("update %v: %v", id, err)
			}
			acked = append(acked, id)
		}
	}
	before := router.Nodes()
	slices.Sort(before)
	// Router B's last traffic before the kill: it lists the same
	// nodes and has seen both members at their first epoch.
	if got := routerB.Nodes(); !slices.Equal(got, before) {
		t.Fatalf("second router lists %v, first %v", got, before)
	}
	if got := routerB.Map()[1].Epoch; got != 1 {
		t.Fatalf("second router records epoch %d for member 1 before the fail-over, want 1", got)
	}

	// A sentinel write at the stream's tail: once the follower serves
	// it, every earlier acked write replicated too (single total
	// order).
	sentinel := acked[len(acked)-1] // last member-1 id
	if err := router.Update(sentinel, vector.Of(9.5, 9.5), false); err != nil {
		t.Fatal(err)
	}
	_, sentinelLocal := fed.SplitID(sentinel)
	waitFor(t, 5*time.Second, "follower catch-up", func() bool {
		e := cl.Engine()
		if e == nil {
			return false
		}
		resp, err := e.Query(serve.QueryRequest{Demand: vector.Of(9.4, 9.4), K: 16, NoCache: true})
		if err != nil {
			return false
		}
		for _, c := range resp.Candidates {
			if c.Node == sentinelLocal {
				return true
			}
		}
		return false
	})

	// Kill member B's primary outright and promote its follower.
	bSrv.Close()
	replSrv.Close()
	bEng.Close()
	epoch, err := cl.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("promotion sealed epoch %d, want 2", epoch)
	}

	// The first post-promotion write walks the whole fail-over path:
	// dead primary -> rotate to the follower address -> fenced by the
	// new epoch -> re-stamp and apply.
	if err := router.Update(sentinel, vector.Of(9.6, 9.6), false); err != nil {
		t.Fatalf("first write after fail-over: %v", err)
	}
	// Zero acked-write loss: every id acked before the crash is still
	// listed and writable through the router.
	after := router.Nodes()
	slices.Sort(after)
	if !slices.Equal(before, after) {
		t.Fatalf("node set changed across fail-over:\n before %v\n after  %v", before, after)
	}
	for _, id := range acked {
		if err := router.Update(id, vector.Of(3, 3), false); err != nil {
			t.Fatalf("acked id %v lost across fail-over: %v", id, err)
		}
	}
	// The router's federation map converged onto the new epoch.
	if got := router.Map()[1].Epoch; got != 2 {
		t.Fatalf("federation map records epoch %d for the failed-over member, want 2", got)
	}

	// Router B still holds a connection to the dead primary and epoch
	// 1. Its first write walks the same path inside one call's three
	// attempts, on nothing but what member 1 answers.
	if got := routerB.Map()[1].Epoch; got != 1 {
		t.Fatalf("second router records epoch %d before its first post-fail-over frame, want 1", got)
	}
	if err := routerB.Update(sentinel, vector.Of(9.7, 9.7), false); err != nil {
		t.Fatalf("second router's first write after fail-over: %v", err)
	}
	if got := routerB.Map()[1].Epoch; got != 2 {
		t.Fatalf("second router records epoch %d for the failed-over member, want 2", got)
	}
	if got := routerB.Nodes(); !slices.Equal(got, after) {
		t.Fatalf("routers disagree on the node set after fail-over:\n first  %v\n second %v", after, got)
	}
}
