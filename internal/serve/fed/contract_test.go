package fed_test

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pidcan"
	"pidcan/internal/overlay"
	"pidcan/internal/serve"
	"pidcan/internal/serve/fed"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// placed is what the placement contract is written against: the
// Service surface plus Migrate, which both an Engine (over its shards)
// and a Router (over its members) implement on serve.ForwardTable.
type placed interface {
	serve.Service
	Migrate(node serve.GlobalID, to int) error
}

var errRefused = errors.New("contract: this placement refuses joins")

// flaky is the backend behind one placement — one shard of the engine
// rig, the only shard of one member of the router rig — with the
// faults and the signals the scenarios need. Its shard's combiner is
// its only caller; the test reaches it through atomics and channels.
type flaky struct {
	serve.Backend
	refuse atomic.Bool                   // Join fails
	gate   atomic.Pointer[chan struct{}] // Join waits for the channel to close
	left   chan struct{}                 // a node left (a leave or a take applied)
	missed chan struct{}                 // a write named a node that is not here
}

func newFlaky(be serve.Backend) *flaky {
	// Buffered past anything one scenario produces; sends never block.
	return &flaky{Backend: be, left: make(chan struct{}, 64), missed: make(chan struct{}, 64)}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func drain(ch chan struct{}) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func (f *flaky) Join() (overlay.NodeID, error) {
	if g := f.gate.Load(); g != nil {
		<-*g
	}
	if f.refuse.Load() {
		return 0, errRefused
	}
	return f.Backend.Join()
}

func (f *flaky) SetAvailability(id overlay.NodeID, avail vector.Vec) error {
	err := f.Backend.SetAvailability(id, avail)
	if err != nil {
		signal(f.missed)
	}
	return err
}

func (f *flaky) Leave(id overlay.NodeID) error {
	err := f.Backend.Leave(id)
	if err != nil {
		signal(f.missed)
	} else {
		signal(f.left)
	}
	return err
}

// stall makes the placement's joins wait until the returned func runs.
func (f *flaky) stall() (release func()) {
	g := make(chan struct{})
	f.gate.Store(&g)
	return func() {
		f.gate.Store(nil)
		close(g)
	}
}

// rig is one implementation under the contract: two placements, each
// over one flaky backend.
type rig struct {
	svc   placed
	backs []*flaky
	// phys lists the physical ids of the nodes at a placement, in the
	// service's id namespace.
	phys func(place int) []serve.GlobalID
	// stranger is an id no placement of the set owns.
	stranger serve.GlobalID
	// forwarded and migrations read the service's counters.
	forwarded  func() int
	migrations func() uint64
}

func contractCfg(shards int, seed uint64) serve.Config {
	return serve.Config{
		Shards:        shards,
		NodesPerShard: 3,
		Seed:          seed,
		CMax:          vector.Of(10, 10),
		FlushInterval: 5 * time.Millisecond,
	}
}

// flakyEngine builds an engine whose shard backends are real clusters
// behind flaky wrappers, returned in shard order.
func flakyEngine(t *testing.T, cfg serve.Config) (*serve.Engine, []*flaky) {
	t.Helper()
	backs := make([]*flaky, cfg.Shards)
	eng, err := serve.New(cfg, func(i int, rc serve.Config) (serve.Backend, error) {
		c, err := pidcan.NewCluster(pidcan.ClusterConfig{
			Nodes: rc.NodesPerShard,
			CMax:  rc.CMax,
			Seed:  rc.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
		})
		if err != nil {
			return nil, err
		}
		backs[i] = newFlaky(c)
		return backs[i], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, backs
}

// engineRig: the placements are the two shards of one engine.
func engineRig(t *testing.T) *rig {
	eng, backs := flakyEngine(t, contractCfg(2, 1))
	return &rig{
		svc:   eng,
		backs: backs,
		phys: func(place int) []serve.GlobalID {
			snap, err := eng.Snapshot(place)
			if err != nil {
				t.Fatal(err)
			}
			var ids []serve.GlobalID
			for _, rec := range snap.Records {
				ids = append(ids, serve.Global(place, rec.Node))
			}
			return ids
		},
		stranger:   serve.Global(9, 0),
		forwarded:  func() int { return eng.Stats().ForwardedIDs },
		migrations: func() uint64 { return eng.Stats().Migrations },
	}
}

// routerRig: the placements are two one-shard member processes
// (loopback wire servers) behind a router.
func routerRig(t *testing.T) *rig {
	var (
		engs  []*serve.Engine
		backs []*flaky
		addrs [][]string
	)
	for m := 0; m < 2; m++ {
		eng, b := flakyEngine(t, contractCfg(1, uint64(m+1)))
		srv := wire.NewServer(func() serve.Service { return eng }, wire.ServerConfig{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		engs, backs, addrs = append(engs, eng), append(backs, b[0]), append(addrs, []string{ln.Addr().String()})
	}
	router := newRouter(t, fed.Config{Members: addrs, CMax: vector.Of(10, 10), SummaryRefresh: -1})
	return &rig{
		svc:   router,
		backs: backs,
		phys: func(place int) []serve.GlobalID {
			// A member never migrates inside itself, so the ids it
			// lists are physical.
			var ids []serve.GlobalID
			for _, id := range engs[place].Nodes() {
				ids = append(ids, fed.ID(place, id))
			}
			return ids
		},
		stranger:   fed.ID(9, serve.Global(0, 0)),
		forwarded:  func() int { return router.StatsPayload().(fed.Stats).ForwardedIDs },
		migrations: func() uint64 { return router.StatsPayload().(fed.Stats).Migrations },
	}
}

// join adds a node at placement 0 advertising avail.
func (r *rig) join(t *testing.T, avail vector.Vec) serve.GlobalID {
	t.Helper()
	id, err := r.svc.JoinOn(0, avail)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// migrate moves id to a placement and returns the physical id it got
// there.
func (r *rig) migrate(t *testing.T, id serve.GlobalID, to int) serve.GlobalID {
	t.Helper()
	before := r.phys(to)
	if err := r.svc.Migrate(id, to); err != nil {
		t.Fatalf("migrate %v to placement %d: %v", id, to, err)
	}
	for _, p := range r.phys(to) {
		if !slices.Contains(before, p) {
			return p
		}
	}
	t.Fatalf("placement %d holds no new node after migrating %v there", to, id)
	return 0
}

// advertised returns what the service's snapshot query reports for id
// (nil: not a candidate).
func (r *rig) advertised(t *testing.T, id serve.GlobalID) vector.Vec {
	t.Helper()
	resp, err := r.svc.QueryAppend(nil, serve.QueryRequest{Demand: vector.Of(0, 0), K: 64, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range resp.Candidates {
		if c.Node == id {
			return c.Avail
		}
	}
	return nil
}

// gone asserts that the node is unreachable by any of ids, unlisted,
// and that nothing about it is left in the forwarding table.
func (r *rig) gone(t *testing.T, ids ...serve.GlobalID) {
	t.Helper()
	for _, id := range ids {
		if err := r.svc.Update(id, vector.Of(1, 1), false); err == nil {
			t.Fatalf("update of departed node by id %v succeeded", id)
		}
	}
	if slices.Contains(r.svc.Nodes(), ids[0]) {
		t.Fatalf("Nodes() still lists departed node %v", ids[0])
	}
	if n := r.forwarded(); n != 0 {
		t.Fatalf("%d forwarded ids left behind a departed node", n)
	}
}

func await(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// race runs write against a node while its migration 0 -> 1 is held
// between the take and the re-join, so the write first finds the node
// missing at its old home and has to chase it: the migration is
// released only once the old home has rejected the write.
func (r *rig) race(t *testing.T, id serve.GlobalID, write func() error) {
	t.Helper()
	drain(r.backs[0].left) // earlier moves of the scenario signalled too
	drain(r.backs[0].missed)
	release := r.backs[1].stall()
	migrated, wrote := make(chan error, 1), make(chan error, 1)
	go func() { migrated <- r.svc.Migrate(id, 1) }()
	await(t, r.backs[0].left, "the migration's take")
	go func() { wrote <- write() }()
	await(t, r.backs[0].missed, "the write's rejection at the vacated home")
	release()
	if err := <-migrated; err != nil {
		t.Fatalf("migration: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write racing the migration: %v", err)
	}
}

// TestPlacementContract runs one table of placement scenarios over an
// engine's shards and over two loopback members behind a router. Both
// run serve.ForwardTable's placement operations, so both must show the
// same outcomes and the same error sentinels.
func TestPlacementContract(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, r *rig)
	}{
		{"stable_id_across_migrations", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			atHome := len(r.phys(0))
			p1 := r.migrate(t, id, 1)
			if p1 == id {
				t.Fatalf("migration kept physical id %v", id)
			}
			if got := len(r.phys(0)); got != atHome-1 {
				t.Fatalf("source holds %d nodes after the move, want %d", got, atHome-1)
			}
			if r.migrations() != 1 || r.forwarded() == 0 {
				t.Fatalf("after one move: migrations %d, forwarded ids %d", r.migrations(), r.forwarded())
			}
			// Writes, listings and query results all use the id Join
			// returned; the physical id never shows.
			if err := r.svc.Update(id, vector.Of(7, 7), false); err != nil {
				t.Fatalf("update by pre-migration id: %v", err)
			}
			nodes := r.svc.Nodes()
			if !slices.Contains(nodes, id) || slices.Contains(nodes, p1) {
				t.Fatalf("Nodes() = %v, want stable id %v and not physical id %v", nodes, id, p1)
			}
			if got := r.advertised(t, id); !slices.Equal(got, vector.Of(7, 7)) {
				t.Fatalf("node advertises %v under its stable id, want the post-move update", got)
			}
			if got := r.advertised(t, p1); got != nil {
				t.Fatalf("query leaked physical id %v", p1)
			}
			// A second hop: the alias chain grows, every id still routes.
			r.migrate(t, id, 0)
			if err := r.svc.Update(id, vector.Of(8, 8), false); err != nil {
				t.Fatalf("update by external id after the round trip: %v", err)
			}
			if err := r.svc.Update(p1, vector.Of(9, 9), false); err != nil {
				t.Fatalf("update by former physical id: %v", err)
			}
			if got := r.advertised(t, id); !slices.Equal(got, vector.Of(9, 9)) {
				t.Fatalf("node advertises %v, want the update made through its former physical id", got)
			}
			if err := r.svc.Leave(id); err != nil {
				t.Fatalf("leave by original id: %v", err)
			}
			r.gone(t, id, p1)
		}},
		{"leave_by_former_physical_id", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			p1 := r.migrate(t, id, 1)
			r.migrate(t, id, 0)
			if err := r.svc.Leave(p1); err != nil {
				t.Fatalf("leave by former physical id: %v", err)
			}
			r.gone(t, id, p1)
		}},
		{"update_chases_a_racing_migration", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			r.race(t, id, func() error { return r.svc.Update(id, vector.Of(6, 6), false) })
			if got := r.advertised(t, id); !slices.Equal(got, vector.Of(6, 6)) {
				t.Fatalf("node advertises %v after the chase, want the racing update", got)
			}
			if got := len(r.phys(1)); got != 4 {
				t.Fatalf("destination holds %d nodes, want 4", got)
			}
		}},
		{"update_by_former_id_chases_a_racing_migration", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			p1 := r.migrate(t, id, 1)
			r.migrate(t, id, 0)
			r.race(t, id, func() error { return r.svc.Update(p1, vector.Of(6, 6), false) })
			if got := r.advertised(t, id); !slices.Equal(got, vector.Of(6, 6)) {
				t.Fatalf("node advertises %v after the chase, want the racing update", got)
			}
		}},
		{"leave_chases_a_racing_migration", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			r.race(t, id, func() error { return r.svc.Leave(id) })
			r.gone(t, id)
			if got := len(r.phys(1)); got != 3 {
				t.Fatalf("destination holds %d nodes after the chased leave, want 3", got)
			}
		}},
		{"take", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			p1 := r.migrate(t, id, 1)
			avail, err := r.svc.Take(id)
			if err != nil || !slices.Equal(avail, vector.Of(5, 5)) {
				t.Fatalf("take = (%v, %v), want the node's availability", avail, err)
			}
			r.gone(t, id, p1)
			if _, err := r.svc.Take(id); err == nil {
				t.Fatal("second take of the same node succeeded")
			}
		}},
		{"migrate_refusing_destination_rolls_back_home", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			atHome := len(r.phys(0))
			r.backs[1].refuse.Store(true)
			err := r.svc.Migrate(id, 1)
			if err == nil || errors.Is(err, serve.ErrWAL) || errors.Is(err, serve.ErrNoShard) {
				t.Fatalf("migrate into a refusing destination: %v, want a plain failure", err)
			}
			// Home again under a fresh physical id; the stable id
			// routes to it.
			if got := len(r.phys(0)); got != atHome {
				t.Fatalf("source holds %d nodes after the rollback, want %d", got, atHome)
			}
			if slices.Contains(r.phys(0), id) {
				t.Fatalf("rollback re-used vacated physical id %v", id)
			}
			if err := r.svc.Update(id, vector.Of(7, 7), false); err != nil {
				t.Fatalf("update after rolled-back migration: %v", err)
			}
			if !slices.Contains(r.svc.Nodes(), id) {
				t.Fatalf("Nodes() lost id %v after the rollback", id)
			}
			if got := r.advertised(t, id); !slices.Equal(got, vector.Of(7, 7)) {
				t.Fatalf("rolled-back node advertises %v", got)
			}
			if r.migrations() != 0 {
				t.Fatalf("a rolled-back migration was counted: %d", r.migrations())
			}
			// And it can still move once the destination recovers.
			r.backs[1].refuse.Store(false)
			r.migrate(t, id, 1)
		}},
		{"migrate_both_refuse_forgets_the_node", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			p1 := r.migrate(t, id, 1)
			r.backs[0].refuse.Store(true)
			r.backs[1].refuse.Store(true)
			if err := r.svc.Migrate(id, 0); err == nil || errors.Is(err, serve.ErrWAL) {
				t.Fatalf("migrate with both sides refusing: %v, want a plain failure", err)
			}
			start := time.Now()
			r.gone(t, id, p1)
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("ids of a lost node took %v to fail", d)
			}
		}},
		{"migrate_to_own_home_is_a_no_op", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			if err := r.svc.Migrate(id, 0); err != nil {
				t.Fatal(err)
			}
			if r.migrations() != 0 || r.forwarded() != 0 || !slices.Contains(r.phys(0), id) {
				t.Fatalf("no-op migrate left state: migrations %d, forwarded %d, home %v",
					r.migrations(), r.forwarded(), r.phys(0))
			}
		}},
		{"unknown_placements_are_ErrNoShard", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			for what, err := range map[string]error{
				"migrate to an unknown placement": r.svc.Migrate(id, 9),
				"migrate of a stranger":           r.svc.Migrate(r.stranger, 1),
				"update of a stranger":            r.svc.Update(r.stranger, vector.Of(1, 1), false),
				"leave of a stranger":             r.svc.Leave(r.stranger),
				"take of a stranger": func() error {
					_, err := r.svc.Take(r.stranger)
					return err
				}(),
			} {
				if !errors.Is(err, serve.ErrNoShard) {
					t.Fatalf("%s: %v, want ErrNoShard", what, err)
				}
			}
			if err := r.svc.Migrate(id, 1); err != nil {
				t.Fatalf("the node itself stayed movable: %v", err)
			}
		}},
		{"scope_one_reports_stable_ids", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			p1 := r.migrate(t, id, 1)
			if err := r.svc.Update(id, vector.Of(9, 9), true); err != nil {
				t.Fatal(err)
			}
			// Round-robin: four queries ask each placement twice.
			for i := 0; i < 4; i++ {
				resp, err := r.svc.QueryAppend(nil, serve.QueryRequest{
					Demand: vector.Of(1, 1), K: 16, Consistent: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if resp.ShardsQueried != 1 {
					t.Fatalf("consistent query consulted %d shards", resp.ShardsQueried)
				}
				for _, c := range resp.Candidates {
					if c.Node == p1 {
						t.Fatalf("consistent query leaked physical id %v", p1)
					}
				}
			}
		}},
		{"closed_is_ErrClosed", func(t *testing.T, r *rig) {
			id := r.join(t, vector.Of(5, 5))
			r.svc.(interface{ Close() error }).Close()
			_, takeErr := r.svc.Take(id)
			for what, err := range map[string]error{
				"update":  r.svc.Update(id, vector.Of(1, 1), false),
				"leave":   r.svc.Leave(id),
				"take":    takeErr,
				"migrate": r.svc.Migrate(id, 1),
			} {
				if !errors.Is(err, serve.ErrClosed) {
					t.Fatalf("%s after Close: %v, want ErrClosed", what, err)
				}
			}
		}},
	}
	rigs := []struct {
		name  string
		build func(*testing.T) *rig
	}{{"engine", engineRig}, {"router", routerRig}}
	for _, impl := range rigs {
		t.Run(impl.name, func(t *testing.T) {
			for _, sc := range scenarios {
				t.Run(sc.name, func(t *testing.T) {
					t.Parallel()
					sc.run(t, impl.build(t))
				})
			}
		})
	}
}
