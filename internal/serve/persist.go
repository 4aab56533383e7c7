package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

// shardDir returns shard i's op-log directory under DataDir.
func (e *Engine) shardDir(i int) string {
	return filepath.Join(e.cfg.DataDir, fmt.Sprintf("shard-%d", i))
}

// CheckpointResult describes one completed checkpoint pass.
type CheckpointResult struct {
	// Seq is the checkpoint's sequence number (monotonic per
	// DataDir).
	Seq uint64 `json:"seq"`
	// Nodes is the total population the checkpoint serialized.
	Nodes int `json:"nodes"`
	// Bytes is the checkpoint file's size on disk.
	Bytes int64 `json:"bytes"`
	// ElapsedMS is the wall time of the pass, including every
	// shard's log rotation and the durable file write.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// Checkpoint captures the engine's durable state now: every shard
// rotates its op-log onto a fresh segment and serializes its logical
// state at exactly that boundary, the forwarding table and engine
// counters are added, and the whole checkpoint is written atomically
// (temp file + rename). Log segments and checkpoints the new one
// supersedes are deleted, bounding disk growth and recovery time.
// Serving continues throughout — each shard pauses only for its own
// capture. Fails with ErrNotDurable on an engine built without a
// DataDir, and with ErrClosed after Close (Close itself writes one
// final checkpoint).
func (e *Engine) Checkpoint() (CheckpointResult, error) {
	if e.closed.Load() {
		return CheckpointResult{}, ErrClosed
	}
	// A follower's checkpoints arrive over the replication stream;
	// rotating its segments locally would fork them off the mirror.
	if err := e.writable(); err != nil {
		return CheckpointResult{}, err
	}
	return e.checkpoint()
}

// checkpoint implements Checkpoint (Close calls it after the closed
// flag is already set).
func (e *Engine) checkpoint() (CheckpointResult, error) {
	if e.cfg.DataDir == "" {
		return CheckpointResult{}, ErrNotDurable
	}
	// One pass at a time: concurrent passes would interleave their
	// segment rotations and write checkpoints out of sequence.
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	start := time.Now()
	ck := &wal.Checkpoint{
		Seq:           e.ckptSeq.Load() + 1,
		Epoch:         e.replEpoch.Load(),
		Shards:        e.cfg.Shards,
		NodesPerShard: e.cfg.NodesPerShard,
		Seed:          e.cfg.Seed,
		Dims:          e.cfg.CMax.Dim(),
		NextShard:     e.nextShard.Load(),
		NextQuery:     e.nextQuery.Load(),
	}
	res := CheckpointResult{Seq: ck.Seq}
	// The shard captures happen under the migration barrier: no
	// take+join pair may straddle the rotation boundary with only
	// its take inside, or a crash before the join is logged would
	// lose the node with its take record already pruned.
	e.migMu.Lock()
	for _, s := range e.shards {
		var st wal.ShardState
		err := s.locked(func() (err error) {
			st, err = s.checkpointNow()
			return err
		})
		if err != nil {
			e.migMu.Unlock()
			e.errors.Add(1)
			return CheckpointResult{}, err
		}
		res.Nodes += len(st.Nodes)
		ck.ShardStates = append(ck.ShardStates, st)
	}
	e.migMu.Unlock()
	// The forwarding table and counters are captured after every
	// shard's rotation: anything they miss (an op applied after a
	// shard's capture) lives in a post-rotation segment and replays
	// on top — repoint and forget are idempotent for exactly this.
	ck.Fwd = e.fwd.export()
	ck.Counters = map[string]uint64{
		"queries":    e.readCounts()[rdQueries],
		"consistent": e.consistent.Load(),
		"updates":    e.updates.Load(),
		"joins":      e.joins.Load(),
		"leaves":     e.leaves.Load(),
		"migrations": e.migrations.Load(),
		"rebalances": e.rebalances.Load(),
		"errors":     e.errors.Load(),
	}
	image, err := ck.Image()
	if err != nil {
		e.errors.Add(1)
		return CheckpointResult{}, err
	}
	if _, err := wal.SaveRaw(e.cfg.DataDir, ck.Seq, image); err != nil {
		e.errors.Add(1)
		return CheckpointResult{}, err
	}
	res.Bytes = int64(len(image))
	// Ship the checkpoint to any attached followers before pruning:
	// the sink event (in order after every record frame of the
	// segments it covers) is how a follower mirrors the rotation
	// boundary, the checkpoint file and the pruning below. The image
	// shipped is the exact bytes just written, so a bootstrap
	// session waiting on this checkpoint can never be stranded by a
	// re-read failure.
	if p := e.replSink.Load(); p != nil {
		firstSegs := make([]uint64, len(ck.ShardStates))
		for i, st := range ck.ShardStates {
			firstSegs[i] = st.FirstSeg
		}
		(*p).ReplCheckpoint(ck.Seq, ck.Epoch, firstSegs, image)
	}
	// Prune what the new checkpoint supersedes. Best-effort: a
	// leftover file is re-pruned by the next pass and never consulted
	// by recovery.
	wal.RemoveCheckpointsBelow(e.cfg.DataDir, ck.Seq)
	for i, st := range ck.ShardStates {
		wal.RemoveSegmentsBelow(e.shardDir(i), st.FirstSeg)
	}
	e.ckptSeq.Store(ck.Seq)
	e.checkpoints.Add(1)
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return res, nil
}

// kindCounts tallies replayed records by the engine counter their live
// write bumped — what a follower's apply and recovery both add, so the
// counters cover replicated and replayed writes too.
type kindCounts struct {
	updates, joins, leaves, migrations uint64
}

func (c *kindCounts) add(r wal.Record) {
	switch {
	case r.Kind == wal.KindUpdate:
		c.updates++
	case r.Kind == wal.KindJoin && r.Repoint:
		c.migrations++
	case r.Kind == wal.KindJoin:
		c.joins++
	case r.Kind == wal.KindLeave:
		c.leaves++
	}
}

// addCounts adds c to the engine's write counters.
func (e *Engine) addCounts(c kindCounts) {
	e.updates.Add(c.updates)
	e.joins.Add(c.joins)
	e.leaves.Add(c.leaves)
	e.migrations.Add(c.migrations)
}

// replayTally counts what one shard's recovery re-applied and collects
// the migration takes for orphan reconciliation.
type replayTally struct {
	kindCounts
	records uint64
	takes   []takenNode
}

// takenNode is one replayed migration take: the physical id the node
// left and the availability it carried.
type takenNode struct {
	phys  GlobalID
	avail []float64
}

// recoveryNotes is shared across the parallel shard replays: which
// former physical ids a replayed migration join moved away from, and
// which ids a replayed leave removed for good. Reconciliation uses
// both to tell an orphaned mid-flight take from a completed (or
// properly ended) migration. A follower's apply reconciles nothing
// and notes nothing: its notes are nil.
type recoveryNotes struct {
	mu        sync.Mutex
	repointed map[GlobalID]bool
	forgotten map[GlobalID]bool
}

func (rn *recoveryNotes) noteRepointed(old GlobalID) {
	if rn == nil {
		return
	}
	rn.mu.Lock()
	rn.repointed[old] = true
	rn.mu.Unlock()
}

func (rn *recoveryNotes) noteForgotten(ids []GlobalID) {
	if rn == nil {
		return
	}
	rn.mu.Lock()
	for _, id := range ids {
		rn.forgotten[id] = true
	}
	rn.mu.Unlock()
}

// recover rebuilds the engine's state from DataDir before serving
// starts: the latest valid checkpoint is restored — forwarding
// table, round-robin counters, cumulative stats, and every shard's
// logical state, the latter re-applied through applyBatch — and all
// newer op-log segments are replayed through the same path, shards
// in parallel. A torn final record (crash mid-append) truncates
// cleanly; any other divergence (wrong configuration, a join
// replaying to a different id than the log recorded) aborts startup.
// A migration whose take is durable but whose destination join never
// was (the crash landed between the two halves) is rolled back: the
// node re-joins its source shard with the availability the take
// carried, exactly like a live failed migration.
func (e *Engine) recover() error {
	start := time.Now()
	if err := os.MkdirAll(e.cfg.DataDir, 0o755); err != nil {
		return err
	}
	ck, err := wal.LoadLatest(e.cfg.DataDir)
	if err != nil {
		return err
	}
	// The replication epoch is recovered before any shard opens a
	// segment: the maximum of the checkpoint's sealed epoch and every
	// on-disk segment header (a promotion's rotation can be durable
	// before its checkpoint), floored at 1 (legacy dirs read as 0).
	epoch := uint64(1)
	if ck != nil && ck.Epoch > epoch {
		epoch = ck.Epoch
	}
	for i := range e.shards {
		dir := e.shardDir(i)
		segs, err := wal.Segments(dir)
		if err != nil {
			return err
		}
		for _, seg := range segs {
			meta, err := wal.ReadSegmentMeta(wal.SegmentPath(dir, seg))
			if err != nil {
				return err
			}
			if meta.Epoch > epoch {
				epoch = meta.Epoch
			}
		}
	}
	e.replEpoch.Store(epoch)
	if ck != nil {
		if err := e.checkCkptCompat(ck); err != nil {
			return fmt.Errorf("data dir %q: %w", e.cfg.DataDir, err)
		}
		// Forwarding state restores before replay so the log tail's
		// repoints overlay it, not the reverse.
		e.fwd.restore(ck.Fwd)
		e.nextShard.Store(ck.NextShard)
		e.nextQuery.Store(ck.NextQuery)
		e.reads[0].n[rdQueries].Store(ck.Counters["queries"])
		e.consistent.Store(ck.Counters["consistent"])
		e.updates.Store(ck.Counters["updates"])
		e.joins.Store(ck.Counters["joins"])
		e.leaves.Store(ck.Counters["leaves"])
		e.migrations.Store(ck.Counters["migrations"])
		e.rebalances.Store(ck.Counters["rebalances"])
		e.errors.Store(ck.Counters["errors"])
		e.ckptSeq.Store(ck.Seq)
	}
	notes := &recoveryNotes{
		repointed: map[GlobalID]bool{},
		forgotten: map[GlobalID]bool{},
	}
	tallies := make([]replayTally, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, s := range e.shards {
		var st *wal.ShardState
		if ck != nil {
			st = &ck.ShardStates[i]
		}
		wg.Add(1)
		go func(i int, s *shard, st *wal.ShardState) {
			defer wg.Done()
			tallies[i], errs[i] = e.recoverShard(s, st, notes)
		}(i, s, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	var total uint64
	for _, t := range tallies {
		total += t.records
		e.addCounts(t.kindCounts)
	}
	if err := e.reconcileTakes(tallies, notes); err != nil {
		return err
	}
	e.recoveredRecs.Store(total)
	e.warmStart = ck != nil || total > 0
	e.recoveryNanos.Store(time.Since(start).Nanoseconds())
	return nil
}

// reconcileTakes resolves migration takes whose destination join
// never became durable. A take is orphaned when, after every shard
// has replayed, nothing moved the node onward from the taken
// physical id: no replayed join repoints away from it, the restored
// forwarding table does not route it (a pre-checkpoint join would),
// and no replayed leave removed the node for good. Each orphan rolls
// back like a live failed migration: the node re-joins its source
// shard with the availability its take captured, the forwarding
// table repoints, and the rollback join is logged so the next
// recovery replays it instead of reconciling again.
func (e *Engine) reconcileTakes(tallies []replayTally, notes *recoveryNotes) error {
	for i, t := range tallies {
		for _, tk := range t.takes {
			if notes.repointed[tk.phys] || notes.forgotten[tk.phys] || e.fwd.hasRoute(tk.phys) {
				continue
			}
			s := e.shards[i]
			x := e.fwd.externalOf(tk.phys)
			phys := tk.phys
			// Logged by replay, so the next recovery replays it instead
			// of reconciling again; a log failure here fails recovery.
			if _, err := s.replay([]op{{
				kind:  opJoin,
				node:  -1,
				avail: vector.Vec(tk.avail),
				mig:   &migMeta{ext: x, old: phys},
				onApplied: func(res opResult) {
					if res.err == nil {
						e.fwd.Repoint(x, phys, Global(s.idx, res.node))
					}
				},
			}}); err != nil {
				return fmt.Errorf("shard %d: rolling back orphaned take of %v: %w", i, phys, err)
			}
			s.publish()
		}
	}
	return nil
}

// recoverShard rebuilds one shard: the checkpointed logical state is
// re-applied as synthesized ops, then every post-checkpoint log
// segment replays in order — all through shard.replay, the path a
// follower's apply takes too, and through applyBatch under it, the
// code live batches run. It finishes by opening the log for the
// shard's own appends: a fresh segment, or a follower's last one.
func (e *Engine) recoverShard(s *shard, st *wal.ShardState, notes *recoveryNotes) (replayTally, error) {
	var tally replayTally
	dir := e.shardDir(s.idx)
	segs, err := wal.Segments(dir)
	if err != nil {
		return tally, err
	}
	if st != nil {
		if err := s.restoreCheckpoint(st); err != nil {
			return tally, fmt.Errorf("checkpoint %s: %w",
				wal.CheckpointPath(e.cfg.DataDir, e.ckptSeq.Load()), err)
		}
	}
	first := uint64(0)
	if st != nil {
		first = st.FirstSeg
	}
	nextSeg := uint64(1)
	if first >= nextSeg {
		nextSeg = first + 1
	}
	// The follower mirror resumes its LAST segment in place (the
	// primary is still on it); lastValid/lastCount track where.
	var lastSeg uint64
	var lastValid int64
	var lastCount uint64
	for _, seg := range segs {
		if seg >= nextSeg {
			nextSeg = seg + 1
		}
		if seg < first {
			continue // superseded by the checkpoint; pruning raced a crash
		}
		path := wal.SegmentPath(dir, seg)
		_, recs, validSize, _, err := wal.ReadSegmentInfo(path)
		if err != nil {
			return tally, err
		}
		lastSeg, lastValid, lastCount = seg, validSize, uint64(len(recs))
		ops := make([]op, len(recs))
		for i, r := range recs {
			ops[i] = s.opFromRecord(e, r, notes)
			tally.add(r)
			if r.Kind == wal.KindTake {
				tally.takes = append(tally.takes, takenNode{
					phys:  Global(s.idx, overlay.NodeID(r.Node)),
					avail: r.Avail,
				})
			}
		}
		tally.records += uint64(len(recs))
		if _, err := s.replay(ops); err != nil {
			return tally, fmt.Errorf("%s: %w", path, err)
		}
	}
	var log *wal.Log
	if e.cfg.Follower {
		// Mirror continuation: reopen the last segment for appending
		// at its valid prefix (shedding any torn tail) instead of
		// rotating onto a number the primary never had — the resumed
		// stream continues exactly where this follower's log ends.
		target := lastSeg
		if target < first {
			target, lastValid, lastCount = first, 0, 0
		}
		if target == 0 {
			target, lastValid, lastCount = 1, 0, 0
		}
		log, err = wal.OpenAppend(dir, target, lastValid, e.replEpoch.Load())
		if err != nil {
			return tally, err
		}
		s.segNum.Store(target)
		s.segRecs.Store(lastCount)
	} else {
		log, err = wal.Create(dir, nextSeg, e.replEpoch.Load())
		if err != nil {
			return tally, err
		}
		s.segNum.Store(nextSeg)
		s.segRecs.Store(0)
	}
	s.log = log
	s.publish()
	return tally, nil
}

// restoreCheckpoint re-applies a shard's checkpointed logical state
// through replay in O(alive nodes): the backend's id sequence is
// advanced over dead ids directly (Backend.SeedNextID) and only alive
// nodes are joined.
func (s *shard) restoreCheckpoint(st *wal.ShardState) error {
	if st.Shard != s.idx {
		return fmt.Errorf("shard state %d out of order", st.Shard)
	}
	if uint32(s.nextLocal) > st.NextID {
		return fmt.Errorf("next id %d below initial population %d", st.NextID, s.nextLocal)
	}
	initial := s.nextLocal
	next := overlay.NodeID(st.NextID)
	alive := make(map[overlay.NodeID]bool, len(st.Nodes))
	for _, n := range st.Nodes {
		id := overlay.NodeID(n.Node)
		alive[id] = true
		if id < initial {
			continue
		}
		if err := s.be.SeedNextID(id); err != nil {
			return err
		}
		if _, err := s.replay([]op{{kind: opJoin, node: id}}); err != nil {
			return err
		}
	}
	if err := s.be.SeedNextID(next); err != nil {
		return err
	}
	s.nextLocal = next
	var ops []op
	// Dead initial-population nodes were materialized by the factory
	// and must still leave; dead later ids never existed.
	for id := overlay.NodeID(0); id < initial; id++ {
		if !alive[id] {
			ops = append(ops, op{kind: opLeave, node: id})
		}
	}
	for _, n := range st.Nodes {
		ops = append(ops, op{
			kind:     opUpdate,
			node:     overlay.NodeID(n.Node),
			avail:    vector.Vec(n.Avail),
			announce: true,
		})
	}
	_, err := s.replay(ops)
	return err
}

// opFromRecord rebuilds the live op a log record was written from,
// including the forwarding side effects that ride onApplied hooks —
// so replay exercises exactly the mechanism the live write did. A
// join's node is the local id it must re-assign; notes (nil: none)
// learn the repoints and forgotten ids the hooks apply.
func (s *shard) opFromRecord(e *Engine, r wal.Record, notes *recoveryNotes) op {
	switch r.Kind {
	case wal.KindUpdate:
		return op{
			kind:     opUpdate,
			node:     overlay.NodeID(r.Node),
			avail:    vector.Vec(r.Avail),
			announce: r.Announce,
		}
	case wal.KindJoin:
		o := op{kind: opJoin, node: overlay.NodeID(r.Node), avail: vector.Vec(r.Avail)}
		if r.Repoint {
			ext, old := GlobalID(r.Ext), GlobalID(r.Old)
			o.mig = &migMeta{ext: ext, old: old}
			idx := s.idx
			o.onApplied = func(res opResult) {
				if res.err == nil {
					e.fwd.Repoint(ext, old, Global(idx, res.node))
					notes.noteRepointed(old)
				}
			}
		}
		return o
	case wal.KindLeave:
		phys := Global(s.idx, overlay.NodeID(r.Node))
		return op{
			kind: opLeave,
			node: overlay.NodeID(r.Node),
			onApplied: func(res opResult) {
				if res.err == nil {
					notes.noteForgotten(e.fwd.Forget(phys))
				}
			},
		}
	default: // wal.KindTake
		return op{kind: opTake, node: overlay.NodeID(r.Node)}
	}
}

// replay is the one path from records to state: recovery, a follower's
// apply and the rollback of an orphaned take all drive their ops
// through it. It applies them in MaxBatch-sized batches and logs each
// batch as a live one is, but never fsyncs it, for it acks no writer
// (logBatch writes nothing during recovery, which runs before the log
// opens); like the live path it advances no simulated time. Every op
// must succeed and every join must re-assign the id its op names:
// anything else means the log and this engine's deterministic backend
// have diverged, and replay stops rather than build on a state it
// cannot vouch for. It returns how many ops mutated state; publishing
// them is the caller's.
func (s *shard) replay(ops []op) (int, error) {
	muts := 0
	for len(ops) > 0 {
		batch := ops[:min(len(ops), s.cfg.MaxBatch)]
		results, n := s.applyBatch(batch)
		s.logBatch(batch, results, false)
		muts += n
		for i, o := range batch {
			if err := results[i].err; err != nil {
				return muts, fmt.Errorf("replay op %d (kind %d, node %d): %w", i, o.kind, o.node, err)
			}
			if o.kind == opJoin && o.node >= 0 && results[i].node != o.node {
				return muts, fmt.Errorf("replay join assigned node %d, log recorded %d (divergent backend)",
					results[i].node, o.node)
			}
		}
		ops = ops[len(batch):]
	}
	return muts, nil
}
