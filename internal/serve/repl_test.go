package serve

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

// TestWALFailureSurfacesToWriter pins the satellite fix: a write
// whose op-log append/fsync fails must come back with ErrWAL instead
// of a silent acknowledgment. A combiner is stalled inside a round
// (gated fake query), the log's file is closed underneath it, and the
// update drained into the same round must error.
func TestWALFailureSurfacesToWriter(t *testing.T) {
	cfg := testConfig(1)
	cfg.FlushInterval = time.Hour // no idle interference
	cfg.DataDir = t.TempDir()
	gate := make(chan struct{})
	var fb *fakeBackend
	e, err := New(cfg, func(i int, rc Config) (Backend, error) {
		fb = newFake(rc.NodesPerShard, rc.CMax.Dim())
		fb.gate = gate
		return fb, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	s := e.shards[0]

	// Stall a combiner inside a query's applyBatch, then queue an
	// update into the same round and break the log while the
	// combiner is provably blocked.
	qreply := make(chan opResult, 1)
	s.ops <- op{kind: opQuery, node: -1, demand: vector.Of(0, 0), k: 1, reply: qreply}
	go s.serveQueued()
	for len(s.ops) > 0 {
		time.Sleep(time.Millisecond)
	}
	ureply := make(chan opResult, 1)
	s.ops <- op{kind: opUpdate, node: 0, avail: vector.Of(1, 1), reply: ureply}
	s.log.Close() // the next Append's flush/fsync fails
	close(gate)

	if res := <-qreply; res.err != nil {
		t.Fatalf("query in the failed batch errored: %v (queries never touch the log)", res.err)
	}
	res := <-ureply
	if !errors.Is(res.err, ErrWAL) {
		t.Fatalf("update in the failed batch returned %v, want ErrWAL", res.err)
	}
	if e.Stats().LogErrors == 0 {
		t.Fatal("log failure not counted in Stats")
	}
}

// TestSegmentSizeRotationCompacts: a shard whose segment outgrows its
// size bound (segmentMaxBytes) rotates mid-checkpoint-interval and
// compacts the closed segment, so recovery replay is bounded by live
// state, not update churn.
func TestSegmentSizeRotationCompacts(t *testing.T) {
	const segMax = 2048 // tiny: a few dozen updates
	cfg := testConfig(1)
	cfg.DataDir = t.TempDir()
	e := newDurableEngine(t, cfg, cfg.DataDir)
	s := e.shards[0]
	s.locked(func() error { s.segMax = segMax; return nil })
	nodes := e.Nodes()
	for i := 0; i < 400; i++ {
		if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i%10), 1), false); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(cfg.DataDir, "shard-0")
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("no size-based rotation after 400 updates over a %d-byte cap: segments %v",
			segMax, segs)
	}
	// Every closed segment is compacted: at most one surviving
	// update per node.
	for _, seg := range segs[:len(segs)-1] {
		meta, recs, _, _, err := wal.ReadSegmentInfo(wal.SegmentPath(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Compacted {
			t.Fatalf("closed segment %d not compacted", seg)
		}
		seen := map[uint32]bool{}
		for _, r := range recs {
			if r.Kind != wal.KindUpdate {
				continue
			}
			if seen[r.Node] {
				t.Fatalf("segment %d keeps two updates for node %d after compaction", seg, r.Node)
			}
			seen[r.Node] = true
		}
	}
	// And the whole history still replays to the same state.
	pre := fingerprint(t, e, 1)
	e.close(false)
	re := newDurableEngine(t, cfg, cfg.DataDir)
	assertSameState(t, pre, fingerprint(t, re, 1), "recovery over compacted segments")
}

// TestFollowerGatesAndPromoteLocal: a follower engine refuses every
// write path with ErrReadOnly (naming its primary), serves reads,
// and PromoteLocal seals a durable higher epoch that a restart
// recovers.
func TestFollowerGatesAndPromoteLocal(t *testing.T) {
	cfg := testConfig(2)
	cfg.DataDir = t.TempDir()
	cfg.Follower = true
	cfg.PrimaryAddr = "primary.example:7000"
	e, err := New(cfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	node := Global(0, 0)
	if err := e.Update(node, vector.Of(1, 1), false); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Update = %v, want ErrReadOnly", err)
	}
	if _, err := e.Join(nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Join = %v, want ErrReadOnly", err)
	}
	if err := e.Leave(node); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Leave = %v, want ErrReadOnly", err)
	}
	if err := e.Migrate(node, 1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Migrate = %v, want ErrReadOnly", err)
	}
	if _, err := e.Rebalance(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Rebalance = %v, want ErrReadOnly", err)
	}
	if _, err := e.Checkpoint(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("follower Checkpoint = %v, want ErrReadOnly", err)
	}
	if err := e.Update(node, vector.Of(1, 1), false); err == nil ||
		!errors.Is(err, ErrReadOnly) || !containsStr(err.Error(), cfg.PrimaryAddr) {
		t.Fatalf("follower write error %v does not name the primary", err)
	}
	if _, err := e.Query(QueryRequest{Demand: vector.Of(0, 0), K: 2, NoCache: true}); err != nil {
		t.Fatalf("follower read failed: %v", err)
	}
	if got := e.Role(); got != "follower" {
		t.Fatalf("role %q, want follower", got)
	}

	epoch, err := e.PromoteLocal()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || e.Role() != "primary" || e.Epoch() != 2 {
		t.Fatalf("after promote: epoch %d role %q", e.Epoch(), e.Role())
	}
	if _, err := e.PromoteLocal(); !errors.Is(err, ErrNotFollower) {
		t.Fatalf("double promote = %v, want ErrNotFollower", err)
	}
	if err := e.Update(node, vector.Of(2, 2), true); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// The sealed epoch survives a restart as a plain primary.
	rcfg := cfg
	rcfg.Follower = false
	rcfg.PrimaryAddr = ""
	re, err := New(rcfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	if got := re.Epoch(); got != 2 {
		t.Fatalf("restarted epoch %d, want 2", got)
	}
}

// TestFollowerSyncsOnlyWherePromised: a follower writes each applied
// frame to its mirror and fsyncs none of them — its 1 000 frames add
// no op-log fsync, yet the live segment holds every record — while
// each call that promises a durable position still syncs: the
// subscription position, a mirrored rotation's seal, and the
// promotion's checkpoint.
func TestFollowerSyncsOnlyWherePromised(t *testing.T) {
	cfg := testConfig(1)
	cfg.DataDir = t.TempDir()
	cfg.Follower = true
	e, err := New(cfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	syncs := func() uint64 { return e.Stats().LogSyncs }

	before := syncs()
	const frames = 1000
	rec := []wal.Record{{Kind: wal.KindUpdate, Avail: []float64{0, 0}}}
	for i := 0; i < frames; i++ {
		rec[0].Node = uint32(i % cfg.NodesPerShard)
		rec[0].Avail[0], rec[0].Avail[1] = float64(i%9+1), float64(i%7+1)
		if err := e.ReplApply(0, e.Epoch(), rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := syncs() - before; got != 0 {
		t.Fatalf("%d applied frames made %d op-log fsyncs; want 0", frames, got)
	}
	seg := e.ReplPositions()[0].Seg
	_, recs, _, _, err := wal.ReadSegmentInfo(e.ReplLogPath(0, seg))
	if err != nil || len(recs) != frames {
		t.Fatalf("live mirror segment holds %d records (%v); want %d", len(recs), err, frames)
	}

	before = syncs()
	pos, err := e.ReplSyncPosition(0)
	if err != nil || pos != (ReplPos{Seg: seg, Pos: frames}) {
		t.Fatalf("ReplSyncPosition = %+v, %v; want {%d %d}", pos, err, seg, frames)
	}
	if syncs() == before {
		t.Fatal("ReplSyncPosition did not fsync the mirror")
	}
	before = syncs()
	if err := e.ReplRotate(0, seg+1); err != nil {
		t.Fatal(err)
	}
	if syncs() == before {
		t.Fatal("ReplRotate did not seal the closed segment with an fsync")
	}
	before = syncs()
	if _, err := e.PromoteLocal(); err != nil {
		t.Fatal(err)
	}
	if syncs() == before {
		t.Fatal("PromoteLocal did not seal the mirror before opening writes")
	}
}

// TestFollowerPowerCutKeepsMigrationsWhole: a follower's mirror loses,
// in a power cut, whatever each segment file holds past its last
// fsync, and the files lose it independently. Each image here keeps
// every shard's segment as of its last fsync except at most one, which
// keeps everything written. Whichever shard that is, the image must
// recover the primary's node set with the migration complete: a
// repointing join on disk must find its take on disk, or the moved
// node would come back on both shards, and the join must be on disk
// once its frame is applied, or the take would be rolled back.
func TestFollowerPowerCutKeepsMigrationsWhole(t *testing.T) {
	cfg := testConfig(2)
	p := newDurableEngine(t, cfg, t.TempDir())
	sink := &frameSink{}
	p.SetReplSink(sink)
	nodes := p.Nodes()
	for i, id := range nodes {
		if err := p.Update(id, vector.Of(float64(i%9+1), 2), false); err != nil {
			t.Fatal(err)
		}
	}
	moved, dst := nodes[0], 1-nodes[0].Shard()
	if err := p.Migrate(moved, dst); err != nil {
		t.Fatal(err)
	}
	for i, id := range p.Nodes() {
		if err := p.Update(id, vector.Of(3, float64(i%7+1)), false); err != nil {
			t.Fatal(err)
		}
	}

	fcfg := cfg
	fcfg.Follower = true
	dir := t.TempDir()
	f := newDurableEngine(t, fcfg, dir)
	// synced[i] is shard i's live segment as of its last fsync: all a
	// power cut is sure to leave of it.
	synced := make([][]byte, cfg.Shards)
	syncs := make([]uint64, cfg.Shards)
	keep := func(i int) {
		data, err := os.ReadFile(f.ReplLogPath(i, f.ReplPositions()[i].Seg))
		if err != nil {
			t.Fatal(err)
		}
		synced[i], syncs[i] = data, f.shards[i].log.Syncs()
	}
	for i := range synced {
		keep(i)
	}
	for _, fr := range sink.frames {
		if at := f.ReplPositions()[fr.shard]; fr.seg != at.Seg || fr.pos != at.Pos {
			t.Fatalf("shard %d frame at %d/%d, mirror at %d/%d", fr.shard, fr.seg, fr.pos, at.Seg, at.Pos)
		}
		if err := f.ReplApply(fr.shard, f.Epoch(), fr.recs); err != nil {
			t.Fatal(err)
		}
		for i := range synced {
			if f.shards[i].log.Syncs() != syncs[i] {
				keep(i)
			}
		}
	}

	for whole := -1; whole < cfg.Shards; whole++ {
		img := t.TempDir()
		if err := os.CopyFS(img, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		for i := range synced {
			if i == whole {
				continue
			}
			rel, err := filepath.Rel(dir, f.ReplLogPath(i, f.ReplPositions()[i].Seg))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(img, rel), synced[i], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		re := newDurableEngine(t, fcfg, img)
		if got, want := re.Stats().TotalNodes, p.Stats().TotalNodes; got != want {
			t.Fatalf("image with shard %d whole recovered %d nodes, the primary holds %d", whole, got, want)
		}
		if got, want := re.Nodes(), p.Nodes(); !slices.Equal(got, want) {
			t.Fatalf("image with shard %d whole recovered nodes %v, the primary holds %v", whole, got, want)
		}
		if got := re.fwd.resolve(moved).Shard(); got != dst {
			t.Fatalf("image with shard %d whole recovered the moved node on shard %d, want %d", whole, got, dst)
		}
	}
}

// frameSink records every logged batch as the replication stream
// carries it.
type frameSink struct {
	mu     sync.Mutex
	frames []sinkFrame
}

type sinkFrame struct {
	shard    int
	seg, pos uint64
	recs     []wal.Record
}

func (c *frameSink) ReplRecords(shard int, seg, pos, epoch uint64, recs []wal.Record) {
	cp := make([]wal.Record, len(recs))
	for i, r := range recs {
		r.Avail = slices.Clone(r.Avail)
		cp[i] = r
	}
	c.mu.Lock()
	c.frames = append(c.frames, sinkFrame{shard: shard, seg: seg, pos: pos, recs: cp})
	c.mu.Unlock()
}

func (c *frameSink) ReplCheckpoint(seq, epoch uint64, firstSegs []uint64, data []byte) {}

// TestFenceSealsWrites: Fence with a newer epoch turns a primary
// read-only with ErrFenced; older epochs are ignored.
func TestFenceSealsWrites(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	e.Fence(1) // not newer: ignored
	if got := e.Role(); got != "primary" {
		t.Fatalf("role %q after no-op fence", got)
	}
	e.Fence(5)
	if got := e.Role(); got != "fenced" {
		t.Fatalf("role %q after fence, want fenced", got)
	}
	if err := e.Update(Global(0, 0), vector.Of(1, 1), false); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced Update = %v, want ErrFenced", err)
	}
	if _, err := e.Query(QueryRequest{Demand: vector.Of(0, 0), K: 1, NoCache: true}); err != nil {
		t.Fatalf("fenced read failed: %v", err)
	}
}

// TestReplSinkSeesEveryMutationInOrder: the engine-side sink
// contract — every logged record batch arrives with contiguous
// per-shard positions, and a checkpoint event follows the records
// its segments cover.
func TestReplSinkSeesEveryMutationInOrder(t *testing.T) {
	cfg := testConfig(1)
	cfg.DataDir = t.TempDir()
	e := newDurableEngine(t, cfg, cfg.DataDir)
	sink := &captureSink{}
	e.SetReplSink(sink)

	nodes := e.Nodes()
	for i := 0; i < 10; i++ {
		if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i), 1), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(nodes[0], vector.Of(9, 9), true); err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	var pos, ckptAt uint64
	seg := uint64(1)
	total := 0
	for i, ev := range sink.events {
		if ev.ckpt {
			ckptAt = uint64(i)
			seg, pos = ev.seg, 0 // firstSeg of shard 0
			continue
		}
		if ev.seg != seg || ev.pos != pos {
			t.Fatalf("event %d at seg %d pos %d, want seg %d pos %d", i, ev.seg, ev.pos, seg, pos)
		}
		pos += uint64(ev.n)
		total += ev.n
	}
	if total != 11 {
		t.Fatalf("sink saw %d records, want 11", total)
	}
	if ckptAt == 0 {
		t.Fatal("sink never saw the checkpoint event")
	}
}

type captureSink struct {
	mu     sync.Mutex
	events []sinkEvent
}

type sinkEvent struct {
	ckpt     bool
	seg, pos uint64
	n        int
}

func (c *captureSink) ReplRecords(shard int, seg, pos, epoch uint64, recs []wal.Record) {
	c.mu.Lock()
	c.events = append(c.events, sinkEvent{seg: seg, pos: pos, n: len(recs)})
	c.mu.Unlock()
}

func (c *captureSink) ReplCheckpoint(seq, epoch uint64, firstSegs []uint64, data []byte) {
	c.mu.Lock()
	c.events = append(c.events, sinkEvent{ckpt: true, seg: firstSegs[0]})
	c.mu.Unlock()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
