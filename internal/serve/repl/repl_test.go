package repl

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/serve/wire"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// fakeBackend is the deterministic test backend (a flat availability
// map): equal configs rebuild identical backends, the property both
// recovery and replication rely on for real clusters.
type fakeBackend struct {
	now   sim.Time
	next  overlay.NodeID
	live  map[overlay.NodeID]bool
	avail map[overlay.NodeID]vector.Vec
	dims  int
}

func newFake(nodes, dims int) *fakeBackend {
	f := &fakeBackend{
		live:  map[overlay.NodeID]bool{},
		avail: map[overlay.NodeID]vector.Vec{},
		dims:  dims,
	}
	for i := 0; i < nodes; i++ {
		f.live[overlay.NodeID(i)] = true
		f.avail[overlay.NodeID(i)] = vector.New(dims)
	}
	f.next = overlay.NodeID(nodes)
	return f
}

func (f *fakeBackend) Nodes() []overlay.NodeID {
	var out []overlay.NodeID
	for id := overlay.NodeID(0); id < f.next; id++ {
		if f.live[id] {
			out = append(out, id)
		}
	}
	return out
}

func (f *fakeBackend) Alive(id overlay.NodeID) bool { return f.live[id] }

func (f *fakeBackend) Availability(id overlay.NodeID) vector.Vec { return f.avail[id].Clone() }

func (f *fakeBackend) SetAvailability(id overlay.NodeID, v vector.Vec) error {
	if !f.live[id] {
		return fmt.Errorf("fake: node %d not live", id)
	}
	f.avail[id] = v.Clone()
	return nil
}

func (f *fakeBackend) Announce(id overlay.NodeID) error {
	if !f.live[id] {
		return fmt.Errorf("fake: node %d not live", id)
	}
	return nil
}

func (f *fakeBackend) Join() (overlay.NodeID, error) {
	id := f.next
	f.next++
	f.live[id] = true
	f.avail[id] = vector.New(f.dims)
	return id, nil
}

func (f *fakeBackend) Leave(id overlay.NodeID) error {
	if !f.live[id] {
		return fmt.Errorf("fake: node %d not live", id)
	}
	delete(f.live, id)
	delete(f.avail, id)
	return nil
}

func (f *fakeBackend) Query(from overlay.NodeID, demand vector.Vec, k int) ([]proto.Record, int, error) {
	var recs []proto.Record
	for _, id := range f.Nodes() {
		if f.avail[id].Dominates(demand) {
			recs = append(recs, proto.Record{Node: id, Avail: f.avail[id].Clone(), Expires: f.now + sim.Minute})
			if len(recs) >= k {
				break
			}
		}
	}
	return recs, len(recs), nil
}

func (f *fakeBackend) Step(d sim.Time) { f.now += d }
func (f *fakeBackend) Now() sim.Time   { return f.now }
func (f *fakeBackend) Size() int       { return len(f.Nodes()) }

func (f *fakeBackend) SeedNextID(next overlay.NodeID) error {
	if next < f.next {
		return fmt.Errorf("fake: seed id %d below next %d", next, f.next)
	}
	f.next = next
	return nil
}

func fakeFactory(i int, rc serve.Config) (serve.Backend, error) {
	return newFake(rc.NodesPerShard, rc.CMax.Dim()), nil
}

// testConfig is the shared engine shape: fast intervals, 2-dim cmax.
func testConfig(shards int) serve.Config {
	return serve.Config{
		Shards:        shards,
		NodesPerShard: 4,
		CMax:          vector.Of(10, 10),
		FlushInterval: 5 * time.Millisecond,
	}
}

// newPrimary builds a durable primary engine plus its replication
// server listening on a loopback port.
func newPrimary(t *testing.T, cfg serve.Config, dir string) (*serve.Engine, *Server, string) {
	t.Helper()
	cfg.DataDir = dir
	e, err := serve.New(cfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	srv, err := NewServer(e, ServerConfig{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return e, srv, ln.Addr().String()
}

// newFollowerClient builds (but does not run) a follower client over
// its own mirror directory.
func newFollowerClient(t *testing.T, cfg serve.Config, dir, primary string) *Client {
	t.Helper()
	return newFollowerClientWith(t, cfg, dir, primary, fakeFactory, nil)
}

// newFollowerClientWith is newFollowerClient over the given backends,
// with tune (when set) adjusting the client's configuration.
func newFollowerClientWith(t *testing.T, cfg serve.Config, dir, primary string,
	factory serve.BackendFactory, tune func(*ClientConfig)) *Client {
	t.Helper()
	fcfg := cfg
	fcfg.DataDir = dir
	fcfg.Follower = true
	fcfg.PrimaryAddr = primary
	ccfg := ClientConfig{
		Primary: primary,
		DataDir: dir,
		Shards:  cfg.Shards,
		Mount: func() (*serve.Engine, error) {
			return serve.New(fcfg, factory)
		},
		RetryMin:     20 * time.Millisecond,
		RetryMax:     100 * time.Millisecond,
		DrainTimeout: 300 * time.Millisecond,
		Logf:         t.Logf,
	}
	if tune != nil {
		tune(&ccfg)
	}
	cl, err := NewClient(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		if e := cl.Engine(); e != nil {
			e.Close()
		}
	})
	return cl
}

// runFollower starts the client loop and waits for its first mount.
func runFollower(t *testing.T, cl *Client) *serve.Engine {
	t.Helper()
	go cl.Run()
	deadline := time.Now().Add(10 * time.Second)
	for cl.Engine() == nil {
		if time.Now().After(deadline) {
			t.Fatal("follower never mounted an engine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cl.Engine()
}

// waitCaughtUp polls until the follower's per-shard mirror positions
// equal the primary's (equal positions on byte-identical mirrors =
// identical applied prefix). Call it with the write load stopped. A
// follower mid-swap (re-bootstrap closes the old engine before the
// new one mounts) reads as not-caught-up, not as a failure.
func waitCaughtUp(t *testing.T, p *serve.Engine, cl *Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		pp, perr := positionsOf(p)
		fp, ferr := positionsOf(cl.Engine())
		if perr == nil && ferr == nil && fp != nil && reflect.DeepEqual(pp, fp) {
			return
		}
		if perr != nil {
			t.Fatalf("primary positions: %v", perr)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: primary %v, follower %v (%v)", pp, fp, ferr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func positionsOf(e *serve.Engine) ([]serve.ReplPos, error) {
	if e == nil {
		return nil, nil
	}
	out := make([]serve.ReplPos, e.Shards())
	for i := range out {
		p, err := e.ReplSyncPosition(i)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// stateOf captures what replication promises to preserve: the node
// set, per-shard records (ids + availability), and best-fit query
// results over a demand sweep.
type state struct {
	Nodes   []serve.GlobalID
	Records map[int][]proto.Record
	Queries [][]serve.Candidate
}

func stateOf(t *testing.T, e *serve.Engine) state {
	t.Helper()
	st := state{Nodes: e.Nodes(), Records: map[int][]proto.Record{}}
	for i := 0; i < e.Shards(); i++ {
		snap, err := e.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range snap.Records {
			st.Records[i] = append(st.Records[i], proto.Record{Node: r.Node, Avail: r.Avail})
		}
	}
	for _, d := range []vector.Vec{vector.Of(1, 1), vector.Of(4, 2), vector.Of(8, 8)} {
		resp, err := e.Query(serve.QueryRequest{Demand: d, K: 16, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		st.Queries = append(st.Queries, resp.Candidates)
	}
	return st
}

func assertSameState(t *testing.T, want, got state, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.Nodes, got.Nodes) {
		t.Fatalf("%s: nodes %v, want %v", label, got.Nodes, want.Nodes)
	}
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Fatalf("%s: shard records diverged:\n got %+v\nwant %+v", label, got.Records, want.Records)
	}
	if !reflect.DeepEqual(want.Queries, got.Queries) {
		t.Fatalf("%s: query results diverged:\n got %+v\nwant %+v", label, got.Queries, want.Queries)
	}
}

// assertMirrorIdentical compares the two data dirs' current segment
// files byte for byte — the mirror contract behind cheap follower
// restarts.
func assertMirrorIdentical(t *testing.T, primaryDir, followerDir string, shards int) {
	t.Helper()
	for i := 0; i < shards; i++ {
		pdir := filepath.Join(primaryDir, fmt.Sprintf("shard-%d", i))
		fdir := filepath.Join(followerDir, fmt.Sprintf("shard-%d", i))
		psegs, err := wal.Segments(pdir)
		if err != nil {
			t.Fatal(err)
		}
		fsegs, err := wal.Segments(fdir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(psegs, fsegs) {
			t.Fatalf("shard %d: segment sets differ: primary %v, follower %v", i, psegs, fsegs)
		}
		for _, seg := range psegs {
			pb, err := os.ReadFile(wal.SegmentPath(pdir, seg))
			if err != nil {
				t.Fatal(err)
			}
			fb, err := os.ReadFile(wal.SegmentPath(fdir, seg))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pb, fb) {
				t.Fatalf("shard %d segment %d: mirror diverges from primary (%d vs %d bytes)",
					i, seg, len(fb), len(pb))
			}
		}
	}
}

// drive applies a deterministic mixed write load against the primary
// and returns the ids it joined.
func drive(t *testing.T, e *serve.Engine, n int) []serve.GlobalID {
	t.Helper()
	var joined []serve.GlobalID
	nodes := e.Nodes()
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			id, err := e.Join(vector.Of(float64(i%9+1), float64(i%7+1)))
			if err != nil {
				t.Fatalf("drive %d join: %v", i, err)
			}
			joined = append(joined, id)
		case 3:
			if len(joined) > 1 {
				if err := e.Leave(joined[0]); err != nil {
					t.Fatalf("drive %d leave: %v", i, err)
				}
				joined = joined[1:]
			}
		default:
			id := nodes[i%len(nodes)]
			if err := e.Update(id, vector.Of(float64(i%10), float64(9-i%10)), i%2 == 0); err != nil {
				t.Fatalf("drive %d update: %v", i, err)
			}
		}
	}
	return joined
}

// TestReplFollowerMirrorsLiveStream is the basic contract: a cold
// follower bootstraps, tails the live write stream, and converges to
// the primary's exact node ids, availability vectors and query
// results, with a byte-identical log mirror.
func TestReplFollowerMirrorsLiveStream(t *testing.T) {
	cfg := testConfig(2)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	f := runFollower(t, cl)

	joined := drive(t, p, 60)
	// A migration mid-stream: the take+join pair must replicate in
	// order and rebuild the forwarding table on the follower.
	if err := p.Migrate(joined[len(joined)-1], (joined[len(joined)-1].Shard()+1)%2); err != nil {
		t.Fatal(err)
	}
	drive(t, p, 20)

	waitCaughtUp(t, p, cl)
	f = cl.Engine()
	assertSameState(t, stateOf(t, p), stateOf(t, f), "live stream")
	assertMirrorIdentical(t, pdir, fdir, 2)

	// The migrated node's external id routes on the follower too
	// (read path: it appears under its external id).
	ids := f.Nodes()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	found := false
	for _, id := range ids {
		if id == joined[len(joined)-1] {
			found = true
		}
	}
	if !found {
		t.Fatalf("migrated node's external id %v missing from follower Nodes %v", joined[len(joined)-1], ids)
	}

	// Writes on the follower are refused with the primary's address.
	if err := f.Update(ids[0], vector.Of(1, 1), false); err == nil {
		t.Fatal("follower accepted a write")
	} else if got := err.Error(); !contains(got, addr) {
		t.Fatalf("follower write error %q does not name the primary %s", got, addr)
	}
	st := f.Stats()
	if st.Role != "follower" || !st.ReplConnected {
		t.Fatalf("follower stats role=%q connected=%v", st.Role, st.ReplConnected)
	}
	if ps := p.Stats(); ps.Role != "primary" || ps.ReplFollowers != 1 {
		t.Fatalf("primary stats role=%q followers=%d", ps.Role, ps.ReplFollowers)
	}
}

func contains(s, sub string) bool {
	return len(sub) > 0 && len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

// TestReplFollowerCrashRestartCatchUp kills the follower (client and
// engine, crash-style) mid-stream and restarts it on the same
// mirror: it must warm-restart from its own disk, RESUME the stream
// from its exact mirror position (no re-bootstrap — the primary's
// checkpoint counter must not move), and converge.
func TestReplFollowerCrashRestartCatchUp(t *testing.T) {
	cfg := testConfig(2)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	f := runFollower(t, cl)

	drive(t, p, 40)
	waitCaughtUp(t, p, cl)

	// Crash the follower: stop the stream, drop the engine without a
	// clean shutdown's final fsync beyond what the mirror already
	// holds (Close flushes; the mirror is per-batch identical anyway).
	cl.Close()
	f.Close()

	// The primary keeps writing while the follower is down — the gap
	// the resumed stream must splice from the primary's disk.
	drive(t, p, 30)

	ckptsBefore := p.Stats().Checkpoints
	cl2 := newFollowerClient(t, cfg, fdir, addr)
	f2 := runFollower(t, cl2)
	if !f2.Stats().WarmStart {
		t.Fatal("restarted follower did not warm-start from its mirror")
	}
	waitCaughtUp(t, p, cl2)
	if got := p.Stats().Checkpoints; got != ckptsBefore {
		t.Fatalf("reconnect forced a bootstrap checkpoint (%d -> %d), want a mid-segment resume",
			ckptsBefore, got)
	}
	assertSameState(t, stateOf(t, p), stateOf(t, cl2.Engine()), "after crash/restart catch-up")
	assertMirrorIdentical(t, pdir, fdir, 2)
}

// TestReplFollowerResumesFromOpenMirrorCopy: a copy of a RUNNING
// follower's mirror — no Close, so no seal: the live segment as
// frames written but never fsynced left it, zero tail and all, which
// is what a crash without a clean shutdown leaves — warm-starts a new
// follower that resumes mid-segment (no bootstrap: the primary's
// checkpoint counter must not move), converges, and mirrors the
// primary byte for byte.
func TestReplFollowerResumesFromOpenMirrorCopy(t *testing.T) {
	cfg := testConfig(2)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	runFollower(t, cl)

	drive(t, p, 40)
	waitCaughtUp(t, p, cl)
	copied := t.TempDir()
	if err := os.CopyFS(copied, os.DirFS(fdir)); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	drive(t, p, 30)

	ckptsBefore := p.Stats().Checkpoints
	cl2 := newFollowerClient(t, cfg, copied, addr)
	f2 := runFollower(t, cl2)
	if !f2.Stats().WarmStart {
		t.Fatal("a follower on the open mirror's copy did not warm-start from it")
	}
	waitCaughtUp(t, p, cl2)
	if got := p.Stats().Checkpoints; got != ckptsBefore {
		t.Fatalf("resuming from the open mirror's copy forced a bootstrap checkpoint (%d -> %d), want a mid-segment resume",
			ckptsBefore, got)
	}
	assertSameState(t, stateOf(t, p), stateOf(t, cl2.Engine()), "after resuming from an open mirror's copy")
	assertMirrorIdentical(t, pdir, copied, 2)
}

// TestReplRebootstrapAfterCheckpoint: a follower that was down
// across a primary checkpoint (segments rotated and pruned under it)
// cannot resume mid-segment and must re-bootstrap by checkpoint
// shipping — and end up with the primary's pruned disk footprint.
func TestReplRebootstrapAfterCheckpoint(t *testing.T) {
	cfg := testConfig(2)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	f := runFollower(t, cl)

	drive(t, p, 30)
	waitCaughtUp(t, p, cl)
	cl.Close()
	f.Close()

	drive(t, p, 20)
	if _, err := p.Checkpoint(); err != nil { // rotates + prunes
		t.Fatal(err)
	}
	drive(t, p, 10)

	ckptsBefore := p.Stats().Checkpoints
	cl2 := newFollowerClient(t, cfg, fdir, addr)
	runFollower(t, cl2)
	waitCaughtUp(t, p, cl2)
	if got := p.Stats().Checkpoints; got != ckptsBefore+1 {
		t.Fatalf("stale follower reconnect: checkpoints %d -> %d, want a forced bootstrap checkpoint",
			ckptsBefore, got)
	}
	assertSameState(t, stateOf(t, p), stateOf(t, cl2.Engine()), "after re-bootstrap")
	assertMirrorIdentical(t, pdir, fdir, 2)
}

// TestReplPromotionServesEveryAckedWrite is the fail-over contract:
// the primary dies hard, the follower is promoted, and every write
// the primary acknowledged (and replicated — the stream was drained
// before the kill) is served by the new primary, which accepts
// writes under a sealed higher epoch that survives its own restart.
func TestReplPromotionServesEveryAckedWrite(t *testing.T) {
	cfg := testConfig(2)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, srv, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	runFollower(t, cl)

	joined := drive(t, p, 50)
	if err := p.Migrate(joined[len(joined)-1], (joined[len(joined)-1].Shard()+1)%2); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, cl)
	acked := stateOf(t, p)

	// Kill the primary hard: sessions drop, nothing more streams.
	srv.Close()
	p.Close()

	epoch, err := cl.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promotion sealed epoch %d, want 2", epoch)
	}
	np := cl.Engine()
	if np.Role() != "primary" {
		t.Fatalf("promoted engine role %q", np.Role())
	}
	assertSameState(t, acked, stateOf(t, np), "promoted follower vs acked primary state")

	// The new primary accepts writes...
	id, err := np.Join(vector.Of(3, 3))
	if err != nil {
		t.Fatalf("write on promoted follower: %v", err)
	}
	if err := np.Update(id, vector.Of(4, 4), true); err != nil {
		t.Fatal(err)
	}
	// ...its stale-epoch stream is fenced per frame...
	if err := np.ReplApply(0, 1, []wal.Record{{Kind: wal.KindLeave, Node: 0}}); err == nil {
		t.Fatal("promoted engine applied a stale-epoch frame")
	}
	// ...and the sealed epoch survives a restart of the new primary.
	pre := stateOf(t, np)
	if err := np.Close(); err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.DataDir = fdir // the follower's mirror is now the primary's data dir
	re, err := serve.New(rcfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	if got := re.Epoch(); got != 2 {
		t.Fatalf("restarted new primary at epoch %d, want 2", got)
	}
	if re.Role() != "primary" {
		t.Fatalf("restarted new primary role %q", re.Role())
	}
	assertSameState(t, pre, stateOf(t, re), "new primary after restart")
}

// TestReplStalePrimaryFenced: after a promotion, the deposed primary
// is fenced the moment anything from the new timeline subscribes to
// it — it seals read-only — and a follower refuses to stream from it.
func TestReplStalePrimaryFenced(t *testing.T) {
	cfg := testConfig(2)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	runFollower(t, cl)
	drive(t, p, 20)
	waitCaughtUp(t, p, cl)

	// Promote the follower while the old primary stays alive (a
	// partition, from its point of view). Stop the stream first.
	if _, err := cl.Promote(); err != nil {
		t.Fatal(err)
	}
	np := cl.Engine()
	if got := np.Epoch(); got != 2 {
		t.Fatalf("new epoch %d, want 2", got)
	}

	// A client of the new timeline subscribes to the stale primary: it
	// must be refused with CodeFenced — and the stale primary seals.
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire.AppendReplSubscribe(nil, 1, np.Epoch(), &wire.ReplSubscribe{Shards: 2})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	r, err := wire.NewClient(conn).ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Errored || r.Err.Code != serve.CodeFenced {
		t.Fatalf("stale primary answered %+v, want CodeFenced", r.Err)
	}
	if got := p.Role(); got != "fenced" {
		t.Fatalf("stale primary role %q after fencing handshake, want fenced", got)
	}
	if err := p.Update(p.Nodes()[0], vector.Of(1, 1), false); err == nil {
		t.Fatal("fenced primary accepted a write")
	}
	// Reads on the fenced primary still serve.
	if _, err := p.Query(serve.QueryRequest{Demand: vector.Of(1, 1), K: 1, NoCache: true}); err != nil {
		t.Fatalf("fenced primary refused a read: %v", err)
	}
}

// TestReplConvergesWithReferenceAcrossReconnects is the divergence
// property test: a deterministic script runs against the primary in
// chunks; between chunks the follower is bounced (stream cut and
// resumed). After every chunk the follower must hold exactly the
// state of a reference engine that applied the same prefix live —
// node ids, availability vectors and query results.
func TestReplConvergesWithReferenceAcrossReconnects(t *testing.T) {
	cfg := testConfig(1)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)

	ref, err := serve.New(cfg, fakeFactory) // in-memory reference
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })

	cl := newFollowerClient(t, cfg, fdir, addr)
	runFollower(t, cl)

	const chunks, per = 5, 16
	for chunk := 0; chunk < chunks; chunk++ {
		// Identical deterministic load on primary and reference.
		script := func(e *serve.Engine) {
			t.Helper()
			nodes := e.Nodes()
			for i := 0; i < per; i++ {
				k := chunk*per + i
				switch k % 4 {
				case 0:
					if _, err := e.Join(vector.Of(float64(k%9+1), 2)); err != nil {
						t.Fatal(err)
					}
				default:
					if err := e.Update(nodes[k%len(nodes)], vector.Of(float64(k%10), float64(9-k%10)), k%2 == 0); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		script(p)
		script(ref)
		waitCaughtUp(t, p, cl)
		assertSameState(t, stateOf(t, ref), stateOf(t, cl.Engine()), fmt.Sprintf("chunk %d", chunk))
		// Bounce the stream: cut the TCP; the client reconnects and
		// resumes from its mirror position.
		cl.closeConn()
	}
	assertMirrorIdentical(t, pdir, fdir, 1)
}

// TestReplUnderMigrationTraffic streams a follower while concurrent
// writers and a migrator hammer the primary — the race-enabled
// satellite. After quiescing, the follower must hold the primary's
// exact state, forwarding table included (every migrated external id
// resolves identically).
func TestReplUnderMigrationTraffic(t *testing.T) {
	cfg := testConfig(4)
	cfg.NodesPerShard = 6
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	runFollower(t, cl)

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	// Two writers over the stable initial population.
	base := p.Nodes()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				id := base[(i*3+w)%len(base)]
				if err := p.Update(id, vector.Of(float64(i%10), float64(w+1)), i%2 == 0); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	// A joiner/migrator: joins nodes and bounces them across shards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var mine []serve.GlobalID
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			switch {
			case i%3 != 0 || len(mine) == 0:
				id, err := p.Join(vector.Of(5, 5))
				if err != nil {
					errs <- fmt.Errorf("joiner: %w", err)
					return
				}
				mine = append(mine, id)
			default:
				id := mine[i%len(mine)]
				if err := p.Migrate(id, i%cfg.Shards); err != nil && !contains(err.Error(), "last node") {
					errs <- fmt.Errorf("migrate %v: %w", id, err)
					return
				}
			}
			if len(mine) > 12 {
				if err := p.Leave(mine[0]); err != nil {
					errs <- fmt.Errorf("leave: %w", err)
					return
				}
				mine = mine[1:]
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	waitCaughtUp(t, p, cl)
	f := cl.Engine()
	assertSameState(t, stateOf(t, p), stateOf(t, f), "after migration traffic")
	assertMirrorIdentical(t, pdir, fdir, cfg.Shards)
	if pf, ff := p.Stats().ForwardedIDs, f.Stats().ForwardedIDs; pf != ff {
		t.Fatalf("forwarding table size diverged: primary %d, follower %d", pf, ff)
	}
}
