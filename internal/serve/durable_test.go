package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

// fakeFactory is the deterministic test backend factory: equal
// configs rebuild identical backends, which is exactly the property
// recovery relies on for real clusters (same seed, same id
// sequence).
func fakeFactory(i int, rc Config) (Backend, error) {
	return newFake(rc.NodesPerShard, rc.CMax.Dim()), nil
}

func newDurableEngine(t *testing.T, cfg Config, dir string) *Engine {
	t.Helper()
	cfg.DataDir = dir
	e, err := New(cfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// engineFingerprint captures everything the durability contract
// promises survives a restart: the node set, each shard's records
// (ids + availability vectors), and best-fit query results for a
// demand sweep.
type engineFingerprint struct {
	nodes   []GlobalID
	records map[int][]struct {
		node  overlay.NodeID
		avail vector.Vec
	}
	queries [][]Candidate
}

func fingerprint(t *testing.T, e *Engine, shards int) engineFingerprint {
	t.Helper()
	fp := engineFingerprint{nodes: e.Nodes()}
	fp.records = map[int][]struct {
		node  overlay.NodeID
		avail vector.Vec
	}{}
	for i := 0; i < shards; i++ {
		snap, err := e.Snapshot(i)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range snap.Records {
			fp.records[i] = append(fp.records[i], struct {
				node  overlay.NodeID
				avail vector.Vec
			}{r.Node, r.Avail})
		}
	}
	for _, d := range []vector.Vec{vector.Of(1, 1), vector.Of(4, 2), vector.Of(8, 8)} {
		resp, err := e.Query(QueryRequest{Demand: d, K: 16, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		fp.queries = append(fp.queries, resp.Candidates)
	}
	return fp
}

func assertSameState(t *testing.T, want, got engineFingerprint, label string) {
	t.Helper()
	if !reflect.DeepEqual(want.nodes, got.nodes) {
		t.Fatalf("%s: nodes %v, want %v", label, got.nodes, want.nodes)
	}
	if !reflect.DeepEqual(want.records, got.records) {
		t.Fatalf("%s: shard records diverged:\n got %+v\nwant %+v", label, got.records, want.records)
	}
	if !reflect.DeepEqual(want.queries, got.queries) {
		t.Fatalf("%s: query results diverged:\n got %+v\nwant %+v", label, got.queries, want.queries)
	}
}

// TestDurableWarmRestart is the end-to-end durability contract: an
// engine loaded with joins, updates, leaves and a migration, closed
// cleanly, must come back serving the identical node set,
// availability vectors, forwarding state and query results.
func TestDurableWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	e := newDurableEngine(t, cfg, dir)

	nodes := e.Nodes()
	for i, id := range nodes {
		if err := e.Update(id, vector.Of(float64(i+1), float64(8-i)), true); err != nil {
			t.Fatal(err)
		}
	}
	joined, err := e.Join(vector.Of(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(nodes[0]); err != nil {
		t.Fatal(err)
	}
	// Migrate the joined node to the other shard so the restart must
	// restore forwarding.
	target := 1 - joined.Shard()
	if err := e.Migrate(joined, target); err != nil {
		t.Fatal(err)
	}
	preStats := e.Stats()
	pre := fingerprint(t, e, 2)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re := newDurableEngine(t, cfg, dir)
	st := re.Stats()
	if !st.WarmStart {
		t.Fatal("restarted engine did not report a warm start")
	}
	if st.TotalNodes != preStats.TotalNodes {
		t.Fatalf("restarted population %d, want %d", st.TotalNodes, preStats.TotalNodes)
	}
	if st.Joins != preStats.Joins || st.Leaves != preStats.Leaves ||
		st.Updates != preStats.Updates || st.Migrations != preStats.Migrations {
		t.Fatalf("counters not restored: got joins/leaves/updates/migrations %d/%d/%d/%d, want %d/%d/%d/%d",
			st.Joins, st.Leaves, st.Updates, st.Migrations,
			preStats.Joins, preStats.Leaves, preStats.Updates, preStats.Migrations)
	}
	assertSameState(t, pre, fingerprint(t, re, 2), "clean restart")
	// The pre-migration external id must still route: forwarding
	// state survived the restart.
	if err := re.Update(joined, vector.Of(7, 7), true); err != nil {
		t.Fatalf("update via pre-migration id after restart: %v", err)
	}
	if got := re.fwd.resolve(joined); got.Shard() != target {
		t.Fatalf("external id resolves to shard %d after restart, want %d", got.Shard(), target)
	}
}

// TestDurableCrashReplay restarts from the op-log alone (no clean
// checkpoint): the log tail replays from genesis through applyBatch.
func TestDurableCrashReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	e := newDurableEngine(t, cfg, dir)
	nodes := e.Nodes()
	for i, id := range nodes {
		if err := e.Update(id, vector.Of(float64(i%5+1), 3), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	joined, err := e.Join(vector.Of(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(nodes[1]); err != nil {
		t.Fatal(err)
	}
	if err := e.Migrate(joined, 1-joined.Shard()); err != nil {
		t.Fatal(err)
	}
	pre := fingerprint(t, e, 2)
	e.close(false) // crash: no final checkpoint

	re := newDurableEngine(t, cfg, dir)
	st := re.Stats()
	if st.RecoveredRecords == 0 {
		t.Fatal("crash restart replayed no records")
	}
	if !st.WarmStart {
		t.Fatal("crash restart did not report a warm start")
	}
	assertSameState(t, pre, fingerprint(t, re, 2), "crash replay")
	if err := re.Update(joined, vector.Of(4, 4), false); err != nil {
		t.Fatalf("update via pre-migration id after crash replay: %v", err)
	}
}

// TestDurableCheckpointThenCrash checkpoints mid-stream, keeps
// writing, then crashes: recovery must compose checkpoint restore
// with log-tail replay, and the checkpoint must have truncated the
// pre-checkpoint log.
func TestDurableCheckpointThenCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	e := newDurableEngine(t, cfg, dir)
	nodes := e.Nodes()
	for i, id := range nodes {
		if err := e.Update(id, vector.Of(float64(i+1), 2), false); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Seq != 1 || res.Nodes != len(nodes) {
		t.Fatalf("checkpoint result %+v, want seq 1 covering %d nodes", res, len(nodes))
	}
	st := e.Stats()
	if st.LogBytes != 0 {
		t.Fatalf("log bytes %d after checkpoint, want 0 (rotated)", st.LogBytes)
	}
	if st.Checkpoints != 1 || st.CheckpointSeq != 1 {
		t.Fatalf("checkpoint counters %d/%d, want 1/1", st.Checkpoints, st.CheckpointSeq)
	}
	// Pre-checkpoint segments are gone.
	segs, err := wal.Segments(filepath.Join(dir, "shard-0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != 2 {
		t.Fatalf("shard 0 segments after checkpoint: %v, want [2]", segs)
	}
	// Post-checkpoint tail.
	joined, err := e.Join(vector.Of(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(nodes[2]); err != nil {
		t.Fatal(err)
	}
	_ = joined
	pre := fingerprint(t, e, 2)
	e.close(false)

	re := newDurableEngine(t, cfg, dir)
	if got := re.Stats().RecoveredRecords; got != 2 {
		t.Fatalf("replayed %d records beyond the checkpoint, want 2", got)
	}
	assertSameState(t, pre, fingerprint(t, re, 2), "checkpoint+tail")
}

// scriptOp is one step of the crash-recovery determinism script.
type scriptOp struct {
	kind  wal.Kind
	node  GlobalID   // update/leave target (index into live set resolved at run time)
	avail vector.Vec // update/join payload
}

// runScript drives calls against an engine, tracking live ids the
// same way on every engine it runs against. Each call is synchronous,
// so on a single-shard engine each one appends exactly one log
// record, in call order.
func runScript(t *testing.T, e *Engine, script []scriptOp, upto int) {
	t.Helper()
	var live []GlobalID
	live = append(live, e.Nodes()...)
	for i := 0; i < upto; i++ {
		op := script[i]
		switch op.kind {
		case wal.KindJoin:
			id, err := e.Join(op.avail)
			if err != nil {
				t.Fatalf("script %d join: %v", i, err)
			}
			live = append(live, id)
		case wal.KindUpdate:
			target := live[int(op.node)%len(live)]
			if err := e.Update(target, op.avail, true); err != nil {
				t.Fatalf("script %d update: %v", i, err)
			}
		case wal.KindLeave:
			j := int(op.node) % len(live)
			if err := e.Leave(live[j]); err != nil {
				t.Fatalf("script %d leave: %v", i, err)
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
}

// makeScript builds a deterministic mixed script. Leaves never drop
// the population below 2 (a single-shard engine must keep its
// backend alive).
func makeScript(n int) []scriptOp {
	rng := rand.New(rand.NewPCG(42, 7))
	script := make([]scriptOp, n)
	pop := 4
	for i := range script {
		r := rng.IntN(10)
		switch {
		case r < 3: // 30% joins
			script[i] = scriptOp{kind: wal.KindJoin,
				avail: vector.Of(float64(rng.IntN(9)+1), float64(rng.IntN(9)+1))}
			pop++
		case r < 5 && pop > 3: // leaves, population permitting
			script[i] = scriptOp{kind: wal.KindLeave, node: GlobalID(rng.IntN(64))}
			pop--
		default:
			script[i] = scriptOp{kind: wal.KindUpdate, node: GlobalID(rng.IntN(64)),
				avail: vector.Of(float64(rng.IntN(9)+1), float64(rng.IntN(9)+1))}
		}
	}
	return script
}

// recordEnds returns the byte offset after each record of a log
// segment, walking the frame headers directly.
func recordEnds(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64
	off := int64(wal.SegHeaderLen) // segments lead with the epoch header
	for off+8 <= int64(len(data)) {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		off += 8 + plen
		if off > int64(len(data)) {
			t.Fatalf("truncated frame in %s", path)
		}
		ends = append(ends, off)
	}
	return ends
}

// TestDurableCrashRecoveryDeterminism is the crash-recovery property
// test: a scripted engine's op-log is killed at EVERY record
// boundary — plus a torn half-record past each boundary — and each
// truncation must recover to exactly the state of a reference engine
// that applied the same call prefix live. One log record per script
// call (calls are synchronous on one shard) makes the prefix
// correspondence exact.
func TestDurableCrashRecoveryDeterminism(t *testing.T) {
	const steps = 24
	script := makeScript(steps)
	cfg := testConfig(1)

	// The recorded run: every call logged and fsynced.
	srcDir := t.TempDir()
	e := newDurableEngine(t, cfg, srcDir)
	runScript(t, e, script, steps)
	e.close(false)

	segPath := wal.SegmentPath(filepath.Join(srcDir, "shard-0"), 1)
	ends := recordEnds(t, segPath)
	if len(ends) != steps {
		t.Fatalf("log has %d records for %d script calls (want 1:1)", len(ends), steps)
	}
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k <= steps; k++ {
		cuts := []int64{0}
		if k > 0 {
			cuts[0] = ends[k-1]
		}
		if k < steps {
			// A torn final record: half of record k+1 must be dropped
			// and recover to the same prefix.
			cuts = append(cuts, cuts[0]+(ends[k]-cuts[0])/2)
		}
		for ci, cut := range cuts {
			label := fmt.Sprintf("prefix %d cut %d", k, ci)
			crashDir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(crashDir, "shard-0"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wal.SegmentPath(filepath.Join(crashDir, "shard-0"), 1),
				whole[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			recovered := newDurableEngine(t, cfg, crashDir)
			if got := recovered.Stats().RecoveredRecords; got != uint64(k) {
				t.Fatalf("%s: recovered %d records, want %d", label, got, k)
			}

			ref, err := New(cfg, fakeFactory) // in-memory reference
			if err != nil {
				t.Fatal(err)
			}
			runScript(t, ref, script, k)
			assertSameState(t, fingerprint(t, ref, 1), fingerprint(t, recovered, 1), label)
			ref.Close()
			recovered.Close()
		}
	}
}

// TestDurableMidMigrationCrash crashes between the two halves of a
// migration (take durable on the source, join lost on the
// destination): recovery must detect the orphaned take and roll the
// node back onto its source shard with the availability the take
// captured — the same outcome as a live failed migration — keeping
// every acknowledged write recovered.
func TestDurableMidMigrationCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	e := newDurableEngine(t, cfg, dir)
	nodes := e.Nodes()
	var victim GlobalID
	for _, id := range nodes {
		if id.Shard() == 0 {
			victim = id
			break
		}
	}
	if err := e.Update(victim, vector.Of(5, 5), true); err != nil {
		t.Fatal(err)
	}
	before := len(e.Nodes())
	if err := e.Migrate(victim, 1); err != nil {
		t.Fatal(err)
	}
	e.close(false)

	// Drop shard 1's log entirely: the re-join never became durable.
	shard1 := filepath.Join(dir, "shard-1")
	if err := os.WriteFile(wal.SegmentPath(shard1, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	re := newDurableEngine(t, cfg, dir)
	if got := len(re.Nodes()); got != before {
		t.Fatalf("population %d after mid-migration crash recovery, want %d (rolled back, not lost)", got, before)
	}
	// The node is home on shard 0 with its availability, and its
	// original id routes to it.
	if got := re.fwd.resolve(victim); got.Shard() != 0 {
		t.Fatalf("rolled-back node resolves to shard %d, want 0", got.Shard())
	}
	if err := re.Update(victim, vector.Of(6, 6), false); err != nil {
		t.Fatalf("update through the rolled-back node's id: %v", err)
	}
	resp, err := re.Query(QueryRequest{Demand: vector.Of(5.5, 5.5), K: 8, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Node != victim {
		t.Fatalf("rolled-back node not serving its updated availability: %+v", resp.Candidates)
	}
	// The rollback was logged: one more crash-style restart must
	// converge to the same state without re-reconciling.
	pre := fingerprint(t, re, 2)
	re.close(false)
	re2 := newDurableEngine(t, cfg, dir)
	assertSameState(t, pre, fingerprint(t, re2, 2), "post-rollback restart")
}

// TestDurableConfigGuard: recovering a data dir under a different
// engine shape must fail loudly, not serve garbage.
func TestDurableConfigGuard(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(2)
	e := newDurableEngine(t, cfg, dir)
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.NodesPerShard = 8
	bad.DataDir = dir
	if _, err := New(bad, fakeFactory); !errors.Is(err, ErrRecovery) {
		t.Fatalf("incompatible recovery error = %v, want ErrRecovery", err)
	}
}

// TestCheckpointNotDurable: Checkpoint without a DataDir fails with
// ErrNotDurable.
func TestCheckpointNotDurable(t *testing.T) {
	e := newTestEngine(t, testConfig(1))
	if _, err := e.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on in-memory engine = %v, want ErrNotDurable", err)
	}
}

// TestDurablePeriodicCheckpoint: the background checkpointer runs on
// its cadence and bounds the log.
func TestDurablePeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(1)
	cfg.CheckpointEvery = 10 * time.Millisecond
	e := newDurableEngine(t, cfg, dir)
	nodes := e.Nodes()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no background checkpoint within 5s")
		}
		if err := e.Update(nodes[0], vector.Of(2, 2), false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Clean close adds its own final checkpoint.
	ck, err := wal.LoadLatest(dir)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint after close: %v", err)
	}
	if ck.Seq < 2 {
		t.Fatalf("checkpoint seq %d, want >= 2 (periodic + close)", ck.Seq)
	}
}

// TestDrainBatchesBeyondSixteen pins the drain capacity fix: a
// backlog larger than the old hardcoded 16-op buffer must still land
// in one batch (up to MaxBatch).
func TestDrainBatchesBeyondSixteen(t *testing.T) {
	cfg := testConfig(1)
	cfg.FlushInterval = time.Hour // no idle interference
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

	// Stall a combiner inside a protocol query's batch: the op is
	// queued directly and served by a round of its own, so once the
	// queue is empty that round provably holds the combiner lock,
	// blocked on the gate.
	qreply := make(chan opResult, 1)
	s.ops <- op{kind: opQuery, node: -1, demand: vector.Of(0, 0), k: 1, reply: qreply}
	go s.serveQueued()
	for len(s.ops) > 0 {
		time.Sleep(time.Millisecond)
	}
	batchesBefore := s.batches.Load()

	// Pile 40 updates into the queue while the combiner is blocked.
	const writes = 40
	replies := make([]chan opResult, writes)
	for i := 0; i < writes; i++ {
		replies[i] = make(chan opResult, 1)
		s.ops <- op{kind: opUpdate, node: 0, avail: vector.Of(1, 1), reply: replies[i]}
	}
	close(gate)
	if res := <-qreply; res.err != nil {
		t.Fatal(res.err)
	}
	for i := 0; i < writes; i++ {
		if res := <-replies[i]; res.err != nil {
			t.Fatal(res.err)
		}
	}
	if got := s.batches.Load() - batchesBefore; got > 2 {
		t.Fatalf("%d writes drained in %d batches, want <= 2 (one drain picks up the whole backlog)", writes, got)
	}
}

// TestDurableOneSyncPerWriteBatch: at the default fsync policy each
// acked single-write batch costs its op-log exactly one fsync, also the
// batches whose sync zero-fills the segment's next chunk.
func TestDurableOneSyncPerWriteBatch(t *testing.T) {
	dir := t.TempDir()
	e := newDurableEngine(t, testConfig(1), dir)
	nodes := e.Nodes()
	seg := wal.SegmentPath(filepath.Join(dir, "shard-0"), e.shards[0].segNum.Load())
	before := e.Stats().LogSyncs
	// A 2-dimension update is a 32-byte record: 2 500 of them cross the
	// segment's first 64 KiB chunk.
	const writes = 2500
	for i := 0; i < writes; i++ {
		if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i%9+1), 2), false); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().LogSyncs - before; got != writes {
		t.Fatalf("%d single-write batches made %d op-log fsyncs; want %d", writes, got, writes)
	}
	if fi, err := os.Stat(seg); err != nil {
		t.Fatal(err)
	} else if fi.Size() != 2<<16 {
		t.Fatalf("live segment is %d bytes; want two 64 KiB chunks", fi.Size())
	}
}

// TestDurableRecoverFromOpenEngineCopy recovers from a copy of a live
// engine's data directory, zero tails and all, as a host crash would
// leave it: every acked write is there.
func TestDurableRecoverFromOpenEngineCopy(t *testing.T) {
	cfg := testConfig(2)
	e := newDurableEngine(t, cfg, t.TempDir())
	nodes := e.Nodes()
	for i := 0; i < 2500; i++ {
		if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i%9+1), float64(i%7+1)), i%3 == 0); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if _, err := e.Join(vector.Of(float64(i%5+1), 4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Leave(nodes[1]); err != nil {
		t.Fatal(err)
	}
	pre := fingerprint(t, e, 2)
	copied := t.TempDir()
	if err := os.CopyFS(copied, os.DirFS(e.cfg.DataDir)); err != nil {
		t.Fatal(err)
	}
	_, _, _, tail, err := wal.ReadSegmentInfo(wal.SegmentPath(filepath.Join(copied, "shard-0"), 1))
	if err != nil || tail == 0 {
		t.Fatalf("copied live segment: %d bytes past its records (%v); want its zero tail", tail, err)
	}
	re := newDurableEngine(t, cfg, copied)
	if st := re.Stats(); !st.WarmStart || st.RecoveredRecords != e.Stats().LogRecords {
		t.Fatalf("recovered %d records (warm start %v); the open engine logged %d",
			st.RecoveredRecords, st.WarmStart, e.Stats().LogRecords)
	}
	assertSameState(t, pre, fingerprint(t, re, 2), "recovery from an open engine's copy")
}

// TestDurableFsyncEveryProcessCrash: under a fsync policy that leaves
// acked batches unsynced, a process crash still loses none of them —
// every logged batch reaches the OS before its writers are acked — so
// a copy of the open engine's data directory (what the disk holds
// when the process dies, the page cache included) recovers every
// acked update.
func TestDurableFsyncEveryProcessCrash(t *testing.T) {
	for _, every := range []int{-1, 8} {
		t.Run(fmt.Sprintf("fsync-every=%d", every), func(t *testing.T) {
			cfg := testConfig(1)
			cfg.FsyncEvery = every
			e := newDurableEngine(t, cfg, t.TempDir())
			nodes := e.Nodes()
			const writes = 20
			for i := 0; i < writes; i++ {
				if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i%9+1), float64(i+1)/4), i%2 == 0); err != nil {
					t.Fatal(err)
				}
			}
			pre := fingerprint(t, e, 1)
			copied := t.TempDir()
			if err := os.CopyFS(copied, os.DirFS(e.cfg.DataDir)); err != nil {
				t.Fatal(err)
			}
			re := newDurableEngine(t, cfg, copied)
			if got := re.Stats().RecoveredRecords; got != writes {
				t.Fatalf("recovered %d of %d acked updates from the open engine's copy", got, writes)
			}
			assertSameState(t, pre, fingerprint(t, re, 1), "process crash under a lazy fsync policy")
		})
	}
}
