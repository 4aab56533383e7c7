package serve_test

// Stress test over the real thing: an Engine whose shards are
// genuine PID-CAN Clusters (wired by pidcan.NewEngine), hammered by
// concurrent clients issuing mixed Query/Update/Join/Leave traffic.
// Run it with -race; that is the whole point — it exercises the
// snapshot read path, the write queues and the query cache across
// shards at once.

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pidcan"
	"pidcan/internal/overlay"
	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

func TestStressConcurrentMixedTraffic(t *testing.T) {
	const (
		shards  = 4
		clients = 32
		opsEach = 150
	)
	eng, err := pidcan.NewEngine(pidcan.EngineConfig{
		Shards:        shards,
		NodesPerShard: 12,
		Seed:          42,
		FlushInterval: 2 * time.Millisecond,
		// The background rebalancer migrates nodes between shards
		// while clients hammer them — Update/Leave must chase moved
		// nodes through the forwarding table without ever failing.
		// Every join lands on shard 0, which skews the populations
		// past the rebalancer's threshold.
		RebalanceInterval: 3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	cmax := eng.Config().CMax
	baseNodes := eng.Nodes()
	if len(baseNodes) != shards*12 {
		t.Fatalf("population %d, want %d", len(baseNodes), shards*12)
	}
	for _, id := range baseNodes {
		if err := eng.Update(id, cmax.Scale(0.5), true); err != nil {
			t.Fatal(err)
		}
	}

	var (
		queries, hits, updates, joins, leaves atomic.Uint64
		wg                                    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 0x57e55))
			var mine []pidcan.GlobalNodeID // nodes this client joined
			demand := func() vector.Vec {
				d := make(vector.Vec, cmax.Dim())
				for i := range d {
					d[i] = cmax[i] * rng.Float64() * 0.6
				}
				return d
			}
			for i := 0; i < opsEach; i++ {
				switch p := rng.Float64(); {
				case p < 0.55: // lock-free snapshot query
					resp, err := eng.Query(pidcan.QueryRequest{Demand: demand(), K: 3})
					if err != nil {
						t.Errorf("client %d query: %v", c, err)
						return
					}
					queries.Add(1)
					if resp.Cached {
						hits.Add(1)
					}
				case p < 0.65: // protocol-routed query
					if _, err := eng.Query(pidcan.QueryRequest{
						Demand: demand(), K: 2, Consistent: true,
					}); err != nil {
						t.Errorf("client %d consistent query: %v", c, err)
						return
					}
					queries.Add(1)
				case p < 0.85: // availability update
					id := baseNodes[rng.IntN(len(baseNodes))]
					// Base nodes are never removed (clients only
					// leave nodes they joined themselves), so every
					// update must succeed.
					if err := eng.Update(id, cmax.Scale(0.2+0.8*rng.Float64()), rng.IntN(4) == 0); err != nil {
						t.Errorf("client %d update %v: %v", c, id, err)
						return
					}
					updates.Add(1)
				case p < 0.95: // join, onto the hot shard
					id, err := eng.JoinOn(0, cmax.Scale(0.3+0.7*rng.Float64()))
					if err != nil {
						t.Errorf("client %d join: %v", c, err)
						return
					}
					mine = append(mine, id)
					joins.Add(1)
				default: // leave (only nodes this client joined)
					if len(mine) == 0 {
						continue
					}
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := eng.Leave(id); err != nil {
						t.Errorf("client %d leave %v: %v", c, id, err)
						return
					}
					leaves.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	st := eng.Stats()
	t.Logf("stress: %d queries (%d cached), %d updates, %d joins, %d leaves; engine stats: %d queries, %d cache hits, %d migrations over %d rebalances, %d forwarded ids, %d errors",
		queries.Load(), hits.Load(), updates.Load(), joins.Load(), leaves.Load(),
		st.Queries, st.CacheHits, st.Migrations, st.Rebalances, st.ForwardedIDs, st.Errors)
	if st.Queries < queries.Load() {
		t.Fatalf("engine counted %d queries, clients issued %d", st.Queries, queries.Load())
	}
	// The engine must still be fully functional afterwards.
	resp, err := eng.Query(pidcan.QueryRequest{Demand: cmax.Scale(0.1), K: 5, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) == 0 {
		t.Fatal("no candidates after stress run")
	}
	// Snapshot totals may trail queued ops briefly, and a node mid-
	// migration is visible on neither shard for a moment; poll until
	// the population settles and the rebalancer has moved nodes off
	// the hot shard.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st = eng.Stats()
		if st.TotalNodes == shards*12+int(st.Joins-st.Leaves) && st.Migrations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("population %d, want %d (+%d joins -%d leaves); %d migrations",
				st.TotalNodes, shards*12, st.Joins, st.Leaves, st.Migrations)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStressCloseWhileBusy closes the engine under fire: in-flight
// operations must either complete or fail with ErrEngineClosed, and
// nothing may hang or race.
func TestStressCloseWhileBusy(t *testing.T) {
	eng, err := pidcan.NewEngine(pidcan.EngineConfig{
		Shards:        4,
		NodesPerShard: 8,
		Seed:          7,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmax := eng.Config().CMax
	nodes := eng.Nodes()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 99))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch rng.IntN(5) {
				case 0, 1:
					_, err = eng.Query(pidcan.QueryRequest{Demand: cmax.Scale(0.2), K: 2})
				case 2, 3:
					err = eng.Update(nodes[rng.IntN(len(nodes))], cmax.Scale(0.5), false)
				default:
					// Migration leg: a two-shard write racing the
					// teardown must fail cleanly, never hang. Random
					// destinations can drain a shard toward empty;
					// refusing to move a last node (ErrLastNode) is
					// the correct outcome there.
					err = eng.Migrate(nodes[rng.IntN(len(nodes))], rng.IntN(4))
					if errors.Is(err, pidcan.ErrLastNode) {
						err = nil
					}
				}
				if err != nil && !errors.Is(err, pidcan.ErrEngineClosed) {
					t.Errorf("client %d: unexpected error %v", c, err)
					return
				}
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestStressMigrateUnderWrites is the migrate-under-concurrent-
// writes race test: a migrator shuttles a set of hot nodes between
// shards while writers hammer exactly those nodes through their
// original ids and queriers read. Every update must land — writes
// racing a migration wait it out and retry against the node's new
// shard — and after the dust settles every hot node must still
// exist exactly once, reachable under its original identity. Run
// with -race; the forwarding table is the contended structure.
func TestStressMigrateUnderWrites(t *testing.T) {
	const (
		shards = 4
		hot    = 6
	)
	eng, err := pidcan.NewEngine(pidcan.EngineConfig{
		Shards:        shards,
		NodesPerShard: 8,
		Seed:          23,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cmax := eng.Config().CMax
	hotNodes := eng.Nodes()[:hot]
	for _, id := range eng.Nodes() {
		if err := eng.Update(id, cmax.Scale(0.5), true); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var moved, wrote atomic.Uint64
	// Migrator: every hot node keeps moving to the next shard. It is
	// the only mover, so it can track where each node lives and count
	// real moves (a same-shard Migrate is a no-op).
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := make([]int, hot)
		for i, id := range hotNodes {
			cur[i] = id.Shard()
		}
		for round := 0; round < 12; round++ {
			for i, id := range hotNodes {
				target := (i + round) % shards
				if err := eng.Migrate(id, target); err != nil {
					t.Errorf("migrate %v round %d: %v", id, round, err)
					return
				}
				if target != cur[i] {
					moved.Add(1)
				}
				cur[i] = target
			}
		}
	}()
	// Writers: updates through the original ids must always land.
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(c), 0x111a7e))
			for i := 0; i < 150; i++ {
				id := hotNodes[rng.IntN(hot)]
				if err := eng.Update(id, cmax.Scale(0.2+0.7*rng.Float64()), i%5 == 0); err != nil {
					t.Errorf("writer %d update %v: %v", c, id, err)
					return
				}
				wrote.Add(1)
			}
		}(c)
	}
	// Queriers keep the snapshot read path and cache in the mix.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := eng.Query(pidcan.QueryRequest{Demand: cmax.Scale(0.3), K: 3}); err != nil {
					t.Errorf("querier %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := eng.Stats()
	t.Logf("migrate stress: %d migrations, %d updates landed, %d forwarded ids, %d errors",
		moved.Load(), wrote.Load(), st.ForwardedIDs, st.Errors)
	if st.Migrations != moved.Load() {
		t.Fatalf("engine counted %d migrations, migrator did %d", st.Migrations, moved.Load())
	}
	if st.TotalNodes != shards*8 {
		t.Fatalf("population %d after migrations, want %d", st.TotalNodes, shards*8)
	}
	// Every hot node is still addressable by its original id, and
	// Nodes reports each exactly once under that id.
	counts := map[pidcan.GlobalNodeID]int{}
	for _, id := range eng.Nodes() {
		counts[id]++
	}
	for _, id := range hotNodes {
		if counts[id] != 1 {
			t.Fatalf("hot node %v appears %d times in Nodes()", id, counts[id])
		}
		if err := eng.Update(id, cmax.Scale(0.4), false); err != nil {
			t.Fatalf("hot node %v unreachable after the run: %v", id, err)
		}
	}
}

// TestStressScatterCloseUnderFire halts the shards while consistent
// queries are in flight: Close tears shards down one by one, so some
// queries take their round-robin turn on a halted shard and others on
// a live one. Every query must either return one shard's answer or
// fail cleanly with ErrEngineClosed — never hang, never race (run with
// -race).
func TestStressScatterCloseUnderFire(t *testing.T) {
	const shards = 4
	eng, err := pidcan.NewEngine(pidcan.EngineConfig{
		Shards:        shards,
		NodesPerShard: 8,
		Seed:          19,
		FlushInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmax := eng.Config().CMax
	for _, id := range eng.Nodes() {
		if err := eng.Update(id, cmax.Scale(0.6), true); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var answered, closedErrs atomic.Uint64
	stop := make(chan struct{})
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := eng.Query(pidcan.QueryRequest{
					Demand:     cmax.Scale(0.2),
					K:          3,
					Consistent: true,
				})
				switch {
				case err == nil:
					if resp.ShardsQueried != 1 {
						t.Errorf("client %d: consistent query answered by %d shards, want 1", c, resp.ShardsQueried)
						return
					}
					answered.Add(1)
				case errors.Is(err, pidcan.ErrEngineClosed):
					closedErrs.Add(1)
				default:
					t.Errorf("client %d: unexpected error %v", c, err)
					return
				}
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a consistent query still hangs 10s after Close")
	}
	t.Logf("consistent close-under-fire: %d answered, %d ErrEngineClosed", answered.Load(), closedErrs.Load())
}

// TestStressCombiner drives one shard's combiner lock from 32 writers
// at once, through a 4-op queue and 8-ack rounds, with control calls
// through the combiner lock and idle ticks every millisecond in between,
// and halts the shard at a random point. Each writer owns one node and
// writes it an increasing sequence number. Every acked write must be
// in the shard's snapshot when its call returns; each node's applied
// writes, as the mutation stream saw them, must be exactly its
// writer's acked ones, in order; after the halt every call must return
// its real result or ErrClosed, and none may hang. The stalled run
// gates the backend, so a combiner holding the lock stops mid-round
// while the others queue behind it and park.
func TestStressCombiner(t *testing.T) {
	t.Run("cluster", func(t *testing.T) { stressCombiner(t, false) })
	t.Run("stalled", func(t *testing.T) { stressCombiner(t, true) })
}

func stressCombiner(t *testing.T, stall bool) {
	const writers = 32
	var (
		quit = make(chan struct{})
		gate chan struct{}
	)
	defer close(quit)
	if stall {
		// The pacer lets 64 availability writes through, then none for
		// a millisecond, again and again.
		gate = make(chan struct{})
		go func() {
			for {
				select {
				case <-quit:
					return
				case <-time.After(time.Millisecond):
				}
				for range 64 {
					select {
					case gate <- struct{}{}:
					case <-quit:
						return
					}
				}
			}
		}()
	}
	eng, err := serve.New(serve.Config{
		Shards:        1,
		NodesPerShard: writers + 8,
		Seed:          37,
		QueueDepth:    4,
		MaxBatch:      8,
		FlushInterval: time.Millisecond,
	}, func(i int, rc serve.Config) (serve.Backend, error) {
		c, err := pidcan.NewCluster(pidcan.ClusterConfig{Nodes: rc.NodesPerShard, CMax: rc.CMax, Seed: rc.Seed})
		if err != nil || gate == nil {
			return c, err
		}
		return &gatedBackend{Backend: c, gate: gate}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sink := &orderSink{seqs: map[uint32][]float64{}}
	eng.SetCapture(sink)
	cmax := eng.Config().CMax
	nodes := eng.Nodes()

	// Each writer makes its first prelude writes and waits at warm, so
	// the last of them find the shard otherwise idle: an op left
	// queued with nobody to serve it stalls its writer for good.
	const prelude = 50
	var wg, warm sync.WaitGroup
	warm.Add(writers)
	release := make(chan struct{})
	acked := make([]int, writers)
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := nodes[w]
			for seq := 1; ; seq++ {
				if seq == prelude+1 {
					warm.Done()
					<-release
				}
				a := cmax.Scale(0.5)
				a[len(a)-1] = float64(seq)
				err := eng.Update(node, a, false)
				if errors.Is(err, serve.ErrClosed) && seq > prelude {
					// Halted: every later call is refused too.
					for range 3 {
						if err := eng.Update(node, a, false); !errors.Is(err, serve.ErrClosed) {
							t.Errorf("writer %d: update after the halt returned %v, want ErrClosed", w, err)
						}
					}
					return
				}
				if err != nil {
					t.Errorf("writer %d update %d: %v", w, seq, err)
					if seq <= prelude {
						warm.Done()
					}
					return
				}
				acked[w] = seq
				snap, _ := eng.Snapshot(0)
				if got := snapAvail(snap, node); got == nil || got[len(got)-1] != float64(seq) {
					t.Errorf("writer %d: update %d acked, snapshot %d holds %v", w, seq, snap.Version, got)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // control calls through the combiner lock
		defer wg.Done()
		for {
			_, err := eng.ReplSyncPosition(0)
			if errors.Is(err, serve.ErrClosed) {
				return
			}
			if !errors.Is(err, serve.ErrNotDurable) {
				t.Errorf("sync round trip: %v, want ErrNotDurable", err)
				return
			}
		}
	}()
	watchdog := time.After(10 * time.Second)
	warmed := make(chan struct{})
	go func() { warm.Wait(); close(warmed) }()
	select {
	case <-warmed:
	case <-watchdog:
		t.Fatalf("a writer's first %d writes still hang after 10s", prelude)
	}
	close(release)
	time.Sleep(time.Duration(1+rand.IntN(20)) * time.Millisecond)
	if err := eng.HaltShard(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-watchdog:
		t.Fatal("a call still hangs after the halt")
	}

	total := 0
	for w, n := range acked {
		total += n
		got := sink.of(uint32(nodes[w].Local()))
		if len(got) != n {
			t.Fatalf("writer %d: %d writes acked, %d applied: %v", w, n, len(got), got)
		}
		for i, seq := range got {
			if seq != float64(i+1) {
				t.Fatalf("writer %d: writes applied in the order %v", w, got)
			}
		}
	}
	st := eng.Stats()
	t.Logf("%d writes acked before the halt in %d batches", total, st.Shards[0].Batches)
}

// TestStressFollowerApply comes at a follower shard through every door
// at once: one goroutine streams replicated frames and mirror rotations
// into it, 8 run consistent queries that queue on the same shard
// behind a 4-op queue, one loops on log syncs, and the shard halts at a
// random point. Every frame whose apply returned nil must be in the
// shard's snapshot when the call returns, and the halted shard's last
// snapshot must hold exactly the last applied frames; after the halt
// every call must return its real result or ErrClosed, and none may
// hang.
func TestStressFollowerApply(t *testing.T) {
	const nodes = 16
	eng, err := serve.New(serve.Config{
		Shards:        1,
		NodesPerShard: nodes,
		Seed:          41,
		QueueDepth:    4,
		FlushInterval: time.Millisecond,
		DataDir:       t.TempDir(),
		Follower:      true,
	}, func(i int, rc serve.Config) (serve.Backend, error) {
		return pidcan.NewCluster(pidcan.ClusterConfig{Nodes: rc.NodesPerShard, CMax: rc.CMax, Seed: rc.Seed})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	cmax := eng.Config().CMax

	// run calls f until it returns ErrClosed, failing on any other
	// error; once refused, a call stays refused.
	var wg sync.WaitGroup
	run := func(who string, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				err := f()
				if errors.Is(err, serve.ErrClosed) {
					for range 3 {
						if err := f(); !errors.Is(err, serve.ErrClosed) {
							t.Errorf("%s after the halt: %v, want ErrClosed", who, err)
						}
					}
					return
				}
				if err != nil {
					t.Errorf("%s: %v", who, err)
					return
				}
			}
		}()
	}

	// The streamer writes node n%nodes the availability whose last
	// component is n, three nodes a frame, and moves the mirror onto a
	// new segment every 16 frames.
	last := make([]float64, nodes) // the last applied value per node
	streaming := make(chan struct{})
	frame, seg := 0, uint64(1)
	run("stream", func() error {
		frame++
		if frame%16 == 0 {
			seg++
			if err := eng.ReplRotate(0, seg); err != nil {
				return err
			}
		}
		recs := make([]wal.Record, 3)
		for i := range recs {
			n := 3*frame + i
			a := cmax.Scale(0.5)
			a[len(a)-1] = float64(n)
			recs[i] = wal.Record{Kind: wal.KindUpdate, Node: uint32(n % nodes), Avail: a}
		}
		if err := eng.ReplApply(0, eng.Epoch(), recs); err != nil {
			return err
		}
		snap, _ := eng.Snapshot(0)
		for _, r := range recs {
			last[r.Node] = r.Avail[len(r.Avail)-1]
			if got := snapAvail(snap, serve.Global(0, overlay.NodeID(r.Node))); got == nil || got[len(got)-1] != last[r.Node] {
				return fmt.Errorf("frame %d applied, snapshot %d holds %v for node %d", frame, snap.Version, got, r.Node)
			}
		}
		if frame == 1 {
			close(streaming)
		}
		return nil
	})
	for q := range 8 {
		run(fmt.Sprintf("consistent query %d", q), func() error {
			_, err := eng.Query(serve.QueryRequest{Demand: cmax.Scale(0.2), K: 2, Consistent: true})
			return err
		})
	}
	var lastSeg uint64
	run("sync", func() error {
		pos, err := eng.ReplSyncPosition(0)
		if err == nil && pos.Seg < lastSeg {
			return fmt.Errorf("synced at segment %d after %d", pos.Seg, lastSeg)
		}
		lastSeg = pos.Seg
		return err
	})

	watchdog := time.After(10 * time.Second)
	select {
	case <-streaming:
	case <-watchdog:
		t.Fatal("the first frame still hangs after 10s")
	}
	time.Sleep(time.Duration(1+rand.IntN(20)) * time.Millisecond)
	if err := eng.HaltShard(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-watchdog:
		t.Fatal("a call still hangs after the halt")
	}
	snap, _ := eng.Snapshot(0)
	for n, want := range last {
		if got := snapAvail(snap, serve.Global(0, overlay.NodeID(n))); want != 0 && (got == nil || got[len(got)-1] != want) {
			t.Fatalf("node %d: last applied frame wrote %v, the halted shard's snapshot holds %v", n, want, got)
		}
	}
	t.Logf("%d frames streamed before the halt, mirror on segment %d", frame, seg)
}

// snapAvail returns node's availability in snap, or nil.
func snapAvail(snap *serve.Snapshot, node serve.GlobalID) vector.Vec {
	for _, r := range snap.Records {
		if serve.Global(snap.Shard, r.Node) == node {
			return r.Avail
		}
	}
	return nil
}

// gatedBackend makes every availability write wait for a token.
type gatedBackend struct {
	serve.Backend
	gate chan struct{}
}

func (g *gatedBackend) SetAvailability(id overlay.NodeID, avail vector.Vec) error {
	<-g.gate
	return g.Backend.SetAvailability(id, avail)
}

// orderSink records, per node, the last availability component of
// every applied update, in application order.
type orderSink struct {
	mu   sync.Mutex
	seqs map[uint32][]float64
}

func (s *orderSink) CaptureQuery(serve.QueryRequest, *serve.QueryResponse, error) {}

func (s *orderSink) CaptureMutations(_ int, recs []wal.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		s.seqs[r.Node] = append(s.seqs[r.Node], r.Avail[len(r.Avail)-1])
	}
}

func (s *orderSink) CaptureStats() serve.CaptureStats { return serve.CaptureStats{} }

func (s *orderSink) of(node uint32) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seqs[node]
}
