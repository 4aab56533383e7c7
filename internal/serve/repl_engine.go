package serve

import (
	"fmt"

	"pidcan/internal/serve/wal"
)

// This file is the engine side of op-log replication — the surface
// internal/serve/repl builds its primary server and follower client
// on. The division of labor: the wire protocol carries the stream;
// repl owns sessions and reconnects; the engine owns every touch of
// shard state and the mirrored DataDir, all funneled through each
// shard's combiner lock (shard.locked) so replication obeys the same
// single-writer discipline as serving.
//
// A follower's DataDir is a byte-level mirror of its primary's:
// checkpoints are shipped verbatim (SaveRaw), and log segments are
// rebuilt record by record through shard.replay, whose applyBatch +
// logBatch are the path live writes take — the encoding is
// deterministic, so the rebuilt segments are byte-identical to the
// primary's. The mirror is what makes a follower crash/restart cheap:
// it recovers from its own disk like any durable engine, then resumes
// the stream from the exact (segment, record) position its log ends
// at.

// ReplSink receives a primary's replication feed: every logged
// record batch and every completed checkpoint, in order (per shard;
// a checkpoint event follows all record events of the segments it
// covers). The repl server's fan-out hub implements it. Calls come
// from shard combiners and the checkpoint path and must not block.
type ReplSink interface {
	// ReplRecords delivers records appended to shard's segment seg
	// starting at record ordinal pos, under the given epoch. recs
	// aliases the shard's reusable batch buffer and is valid only
	// for the duration of the call: a sink that retains it must
	// copy.
	ReplRecords(shard int, seg, pos, epoch uint64, recs []wal.Record)
	// ReplCheckpoint delivers a completed checkpoint: its sequence
	// number, epoch, per-shard first post-rotation segments, and the
	// raw checkpoint file image.
	ReplCheckpoint(seq, epoch uint64, firstSegs []uint64, data []byte)
}

// SetReplSink attaches (or, with nil, detaches) the engine's
// replication sink. One sink at a time; the repl server multiplexes
// its follower sessions behind it.
func (e *Engine) SetReplSink(s ReplSink) {
	if s == nil {
		e.replSink.Store(nil)
		return
	}
	e.replSink.Store(&s)
}

// Role reports the engine's replication role: "primary", "follower",
// or "fenced" (a deposed primary that learned of a newer epoch).
func (e *Engine) Role() string {
	if e.fencedBy.Load() != 0 {
		return "fenced"
	}
	if e.follower.Load() {
		return "follower"
	}
	return "primary"
}

// Epoch returns the current replication epoch.
func (e *Engine) Epoch() uint64 { return e.replEpoch.Load() }

// Shards returns the shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// ReplPos is one shard's op-log position: the current segment and
// how many records it holds.
type ReplPos struct {
	Seg, Pos uint64
}

// ReplSyncPosition flushes and fsyncs one shard's op-log under its
// combiner lock and returns the exact position — everything at or
// before it is readable from the segment file, which is what lets the
// repl server stream a catching-up follower from disk without gaps
// against the live feed.
func (e *Engine) ReplSyncPosition(shard int) (ReplPos, error) {
	if shard < 0 || shard >= len(e.shards) {
		return ReplPos{}, fmt.Errorf("%w: shard %d", ErrNoShard, shard)
	}
	s := e.shards[shard]
	var pos ReplPos
	err := s.locked(func() (err error) {
		pos, err = s.syncLog()
		return err
	})
	return pos, err
}

// ReplPositions returns every shard's live position from lock-free
// gauges — approximate across shards (no cross-shard barrier), which
// is all the heartbeat lag report needs.
func (e *Engine) ReplPositions() []ReplPos {
	out := make([]ReplPos, len(e.shards))
	for i, s := range e.shards {
		out[i] = ReplPos{Seg: s.segNum.Load(), Pos: s.segRecs.Load()}
	}
	return out
}

// ReplLogPath returns the path of one shard's segment file — the
// repl server's disk read for follower catch-up.
func (e *Engine) ReplLogPath(shard int, seg uint64) string {
	return wal.SegmentPath(e.shardDir(shard), seg)
}

// ReplApply applies one replicated record batch to a follower shard
// under its combiner lock, through shard.replay — the path recovery
// takes, and through its applyBatch the one live serving takes — and
// publishes it once. Replay verifies it the way it verifies recovery:
// every join must re-assign the id the primary logged, or the backends
// have diverged and the error aborts the stream rather than serve
// unverifiable state. The records are re-logged to the follower's
// mirror by the shard's own logBatch (deterministic encoding: the
// mirror stays byte-identical). The epoch must match the engine's —
// the per-frame fencing that keeps a deposed primary's stream from
// leaking writes into a sealed follower. The frame's ops are built in
// the shard's batch buffer, so an apply allocates nothing per frame
// beyond what replay and the publication keep.
//
// The sync contract: a frame is written to the mirror, and fsynced
// only when it holds a migration's take or repointing join. A follower
// acknowledges nothing to anyone, so no frame needs to be durable for
// its own sake; what the mirror needs is that whatever a crash leaves
// of it recovers with no node lost or doubled. A process crash leaves
// every frame: the page cache holds them. A power cut leaves each
// segment file its own valid prefix, at least up to its last fsync:
// the reader stops at the first record whose CRC fails (a torn record,
// the zero tail, or a record block that never reached the disk while a
// later one did), and OpenAppend truncates the rest. The primary
// re-sends what lay past it from the follower's recovered position,
// from its disk, or re-bootstraps the follower. The prefixes of
// different shards are independent, which is safe for everything but a
// migration: the destination's repointing join depends on the source's
// take, and recovering the join without the take would leave the node
// alive on both shards. So a migration's frames are fsynced before
// ReplApply returns. The take is on disk before the stream can deliver
// its join, so a join on disk always finds its take on disk. The join
// is on disk before any later frame applies, so a take is left without
// its join only by a crash between the two frames: the partial
// migration recovery rolls back (reconcileTakes). Migrations are rare;
// these are the only fsyncs the stream's frames cost. The mirror is
// also fsynced where it promises a position: ReplSyncPosition,
// ReplRotate's seal and the segment it creates, ReplInstallCheckpoint,
// PromoteLocal's checkpoint (every shard sealed before the new epoch's
// first write is accepted) and Close. After promotion the engine's own
// writes take combine's path, fsynced per FsyncEvery, whatever the
// mirror held.
func (e *Engine) ReplApply(shard int, epoch uint64, recs []wal.Record) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if !e.follower.Load() {
		return ErrNotFollower
	}
	if ours := e.replEpoch.Load(); epoch != ours {
		return fmt.Errorf("%w (frame epoch %d, ours %d)", ErrFenced, epoch, ours)
	}
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("%w: shard %d", ErrNoShard, shard)
	}
	s := e.shards[shard]
	var counts kindCounts
	err := s.locked(func() error {
		ops := s.batchBuf[:0]
		mig := false // a migration's take or repointing join
		for i := range recs {
			ops = append(ops, s.opFromRecord(e, recs[i], nil))
			counts.add(recs[i])
			mig = mig || recs[i].Kind == wal.KindTake || recs[i].Repoint
		}
		muts, err := s.replay(ops)
		// Drop the ops' vectors and hooks: the buffer outlives the frame.
		clear(ops)
		s.batchBuf = ops[:0]
		if err == nil && mig {
			_, err = s.syncLog()
		}
		if muts > 0 && s.epoch != nil {
			s.epoch.Add(1)
		}
		s.publishDelta()
		return err
	})
	if err != nil {
		return err
	}
	e.addCounts(counts)
	return nil
}

// ReplRotate rotates a follower shard's mirror log onto segment seg
// — the follower-side half of its primary's rotation, at the same
// record boundary (the stream is in order, so every record of the
// closed segment has been applied). No-op when the shard is already
// at or past seg.
func (e *Engine) ReplRotate(shard int, seg uint64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if !e.follower.Load() {
		return ErrNotFollower
	}
	if shard < 0 || shard >= len(e.shards) {
		return fmt.Errorf("%w: shard %d", ErrNoShard, shard)
	}
	s := e.shards[shard]
	return s.locked(func() error {
		if s.log.Seg() >= seg {
			return nil
		}
		return s.rotate(seg, true)
	})
}

// checkCkptCompat guards against state written under an incompatible
// engine shape (shared by recovery and checkpoint installation).
func (e *Engine) checkCkptCompat(ck *wal.Checkpoint) error {
	if ck.Shards != e.cfg.Shards || ck.NodesPerShard != e.cfg.NodesPerShard ||
		ck.Seed != e.cfg.Seed || ck.Dims != e.cfg.CMax.Dim() {
		return fmt.Errorf("checkpoint from an incompatible engine "+
			"(shards/nodes/seed/dims %d/%d/%d/%d, this engine %d/%d/%d/%d)",
			ck.Shards, ck.NodesPerShard, ck.Seed, ck.Dims,
			e.cfg.Shards, e.cfg.NodesPerShard, e.cfg.Seed, e.cfg.CMax.Dim())
	}
	if len(ck.ShardStates) != e.cfg.Shards {
		return fmt.Errorf("checkpoint %d has %d shard states, want %d",
			ck.Seq, len(ck.ShardStates), e.cfg.Shards)
	}
	return nil
}

// ReplInstallCheckpoint installs a shipped checkpoint image on a
// follower: every shard's mirror rotates onto the checkpoint's
// post-rotation segment (a no-op where the stream already moved it),
// the image is written verbatim into the DataDir, and superseded
// checkpoints and segments are pruned — exactly the pruning the
// primary did, so the mirror tracks its disk footprint too. The
// follower's live state is untouched: it already applied everything
// the checkpoint covers; the install only bounds ITS OWN next
// recovery.
func (e *Engine) ReplInstallCheckpoint(epoch uint64, data []byte) (*wal.Checkpoint, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if !e.follower.Load() {
		return nil, ErrNotFollower
	}
	if ours := e.replEpoch.Load(); epoch != ours {
		return nil, fmt.Errorf("%w (checkpoint epoch %d, ours %d)", ErrFenced, epoch, ours)
	}
	ck, err := wal.Decode(data)
	if err != nil {
		return nil, err
	}
	if err := e.checkCkptCompat(ck); err != nil {
		return nil, err
	}
	for i, st := range ck.ShardStates {
		if err := e.ReplRotate(i, st.FirstSeg); err != nil {
			return nil, fmt.Errorf("shard %d: rotate to %d: %w", i, st.FirstSeg, err)
		}
	}
	if _, err := wal.SaveRaw(e.cfg.DataDir, ck.Seq, data); err != nil {
		return nil, err
	}
	wal.RemoveCheckpointsBelow(e.cfg.DataDir, ck.Seq)
	for i, st := range ck.ShardStates {
		wal.RemoveSegmentsBelow(e.shardDir(i), st.FirstSeg)
		e.shards[i].logBytes.Store(0)
	}
	e.ckptSeq.Store(ck.Seq)
	e.checkpoints.Add(1)
	return ck, nil
}

// ReplReport records the follower's stream health for Stats: whether
// the stream is live, how many records the primary holds beyond this
// follower, and how old the last heartbeat was when the follower read
// it (both from that heartbeat).
func (e *Engine) ReplReport(connected bool, lagRecords, lagMS int64) {
	e.replConnected.Store(connected)
	e.replLag.Store(lagRecords)
	e.replLagMS.Store(lagMS)
}

// ReplFollowerDelta adjusts the attached-follower gauge (repl server
// sessions).
func (e *Engine) ReplFollowerDelta(d int64) { e.replFollowers.Add(d) }

// Fence seals a primary that learned of a newer epoch — a follower
// it once fed was promoted, and this engine's timeline is dead.
// Writes fail with ErrFenced from here on (reads keep working);
// the operator restarts the process as a follower of the new
// primary, which re-bootstraps its divergent tail away. No-op for
// epochs at or below the engine's own, and on followers.
func (e *Engine) Fence(epoch uint64) {
	if epoch <= e.replEpoch.Load() || e.follower.Load() {
		return
	}
	e.fencedBy.Store(epoch)
}

// SetPromoter installs the function Promote delegates to — the repl
// client's drain-then-seal sequence. Without one, Promote seals
// locally (a follower whose primary is already gone has nothing to
// drain beyond what the client applied).
func (e *Engine) SetPromoter(f func() (uint64, error)) {
	e.promoterMu.Lock()
	e.promoter = f
	e.promoterMu.Unlock()
}

// Promote turns a follower into a primary: the replication stream is
// drained and stopped (via the installed promoter, when one is
// attached), a new epoch is sealed, and writes open up. Returns the
// new epoch. Fails with ErrNotFollower on an engine that is not a
// follower.
func (e *Engine) Promote() (uint64, error) {
	e.promoterMu.Lock()
	f := e.promoter
	e.promoterMu.Unlock()
	if f != nil {
		return f()
	}
	return e.PromoteLocal()
}

// PromoteLocal is the engine half of promotion, called after the
// replication stream has been drained and stopped: bump the epoch,
// seal it durably (a checkpoint under the new epoch — every shard
// rotates onto epoch-stamped segments), then accept writes and start
// the deferred background loops. Any stale primary frame that
// arrives after this is rejected by ReplApply's epoch check.
func (e *Engine) PromoteLocal() (uint64, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if !e.follower.Load() {
		return 0, ErrNotFollower
	}
	epoch := e.replEpoch.Add(1)
	// Seal before opening writes: the epoch is durable (segment
	// headers + checkpoint) before the first write of the new
	// timeline can be acknowledged.
	if _, err := e.checkpoint(); err != nil {
		// The epoch advanced in memory but is not sealed on disk; a
		// crash now rejoins the old timeline. Refuse the promotion
		// rather than serve writes on an unsealed epoch.
		return 0, fmt.Errorf("serve: promotion seal: %w", err)
	}
	e.follower.Store(false)
	e.ReplReport(false, 0, 0)
	e.startLoops()
	return epoch, nil
}
