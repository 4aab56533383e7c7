package serve

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/serve/index"
	"pidcan/internal/serve/wal"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// opKind enumerates the write-queue operations.
type opKind int

const (
	opUpdate opKind = iota // SetAvailability (+ optional Announce)
	opJoin                 // Join (+ optional initial availability)
	opLeave                // Leave
	opQuery                // protocol-routed ("consistent") query
	opTake                 // migration source half: Leave + hand back the availability
)

// migMeta is the serializable migration metadata of a join op that
// completes a migration: the node's external id and the physical id
// it is leaving behind. The live forwarding repoint happens in the
// op's onApplied hook; migMeta is what the op-log records so
// recovery can re-install the same repoint when it replays the join.
type migMeta struct {
	ext, old GlobalID
}

// pendingReply is an applied, logged op whose ack is parked until
// the snapshot publication covering its batch goes live.
type pendingReply struct {
	reply chan opResult
	res   opResult
}

// op is one shard operation, applied by whoever holds the shard's
// combiner lock: a writer's own op, an op queued behind a busy lock,
// or one of the ops replay drives from records. node is the node the
// op acts on; on a join, which picks its id itself, replay reads it as
// the id the log recorded it getting (-1: no expectation). reply, set
// on a queued op (capacity 1), receives exactly one opResult; an op
// served by its own caller or by replay has none. onApplied, when
// non-nil, runs under the combiner lock right after the op is applied
// and BEFORE the batch's snapshot publishes — the hook migration uses
// to install forwarding for a joined node before any snapshot can
// expose its new physical id, and Leave uses to drop forwarding state
// ahead of any later checkpoint capture.
type op struct {
	kind      opKind
	node      overlay.NodeID
	avail     vector.Vec
	announce  bool
	demand    vector.Vec
	k         int
	mig       *migMeta
	fedTake   bool // take whose re-join happens in another process
	reply     chan opResult
	onApplied func(opResult)
}

type opResult struct {
	node  overlay.NodeID
	avail vector.Vec // opTake: the departing node's availability
	recs  []proto.Record
	hops  int
	err   error
}

// shard owns one Backend. Whoever holds the combiner lock mu owns the
// backend and every field marked "combiner" below; the rest of the
// engine reads the published snapshot. The shard runs no goroutine of
// its own. There is one door in: a writer TryLocks mu to serve its own
// op (submit), and everything else — the engine's idle tick, control
// calls, a follower's apply, halt — waits for it (locked). A writer
// that finds the lock taken queues its op and waits for the reply on
// its own core, serving the queue itself whenever the lock comes free,
// and parks only after spinMax or while the holder waits on the disk
// (await): a parked caller costs a wake-up longer than most rounds.
//
// No queued op is lost: a parker counts itself in asleep, then tries
// the lock once more (serveQueued); unlock releases the lock, then
// reads asleep and kicks when ops are queued. A parker whose last
// TryLock failed did so while some holder held the lock, and that
// holder's unlock comes after the parker's count: it sees the parker
// and the parker's op (or the op was served), and kicks. A kicked
// parker serves the queue itself and waits again.
type shard struct {
	idx  int
	cfg  Config
	be   Backend
	ops  chan op
	done chan struct{} // closed once halt has stopped the shard

	// mu is the combiner lock: the shard's single writer is whoever
	// holds it. Writers only TryLock it; locked's callers wait for it,
	// and waiters counts them, so a catch-up yields to them. stopped
	// (combiner) is set by halt before the log closes: no round and no
	// locked call runs after it. asleep counts the callers parked in
	// await, and kick (one slot) wakes one of them to serve what a
	// holder left queued when it unlocked. disk is set while the holder
	// waits on an fsync of the op-log, so queued callers park at once.
	mu      sync.Mutex
	waiters atomic.Int32
	stopped bool
	asleep  atomic.Int32
	kick    chan struct{}
	disk    atomic.Bool

	// queued counts the ops that found the combiner lock taken or ops
	// queued ahead of them (submit's slow path), and parked those of
	// them whose caller parked before its result came (await).
	queued atomic.Uint64
	parked atomic.Uint64

	// Clock seam (clock contract, serve.go): when the shard started and
	// the backend clock then.
	started time.Time
	base    sim.Time

	// dirty collects the nodes the current batch mutated (true:
	// alive, re-read from the backend at publication; false:
	// removed) — all publishDelta hands the index. Combiner; cleared
	// at every publication.
	dirty map[overlay.NodeID]bool

	// flat is the dominance index of the latest published snapshot —
	// the predecessor incremental rebuilds derive from. Combiner;
	// readers see it only through the published Snapshot.
	flat *index.Flat

	// indexed is the Version that first published flat
	// (Snapshot.indexed). Combiner.
	indexed uint64

	// nextLocal tracks the next local id the backend will assign —
	// what a checkpoint records so recovery can re-create the same id
	// sequence. Combiner.
	nextLocal overlay.NodeID

	// log, when non-nil, is the shard's append-only op-log. Combiner
	// after start (the recovery path uses it before). unsynced counts
	// applied batches since the last fsync; segMax is the segment size
	// that rotates the log (segmentMaxBytes).
	log      *wal.Log
	unsynced int
	segMax   int64

	// epoch, when non-nil, is the engine-wide write epoch, bumped
	// once per applied batch that contained at least one mutation
	// (AvailSummary's cache key, Stats' write_epoch).
	epoch *atomic.Uint64

	// Replication state (engine-owned, shared across shards):
	// replEpoch is the current replication epoch (stamped into
	// segment headers and every streamed frame); sink, when set,
	// receives every logged record batch; readOnly marks follower
	// mode (size-based rotation then follows the stream, not local
	// size).
	replEpoch *atomic.Uint64
	sink      *atomic.Pointer[ReplSink]
	readOnly  *atomic.Bool

	// capture, when the engine-owned pointer is set, receives the
	// batch's canonical wal records in application order — the trace
	// recorder's mutation stream (works on in-memory engines too,
	// where log is nil).
	capture *atomic.Pointer[CaptureSink]

	// Reusable batch buffers (combiner): drain and applyBatch run once
	// per batch, so one MaxBatch-sized allocation each serves the
	// shard's lifetime.
	batchBuf []op
	resBuf   []opResult
	recBuf   []wal.Record
	// pubBuf holds the dirty nodes' records publishDelta hands the
	// index, which copies them: reused, and cleared after each use so
	// it keeps no availability vector alive.
	pubBuf []proto.Record
	// pend holds replies whose batches were applied and logged but
	// whose snapshot publication is still being coalesced with a
	// queued backlog — no caller is acked before the snapshot
	// containing its write is live.
	pend []pendingReply

	halted     atomic.Bool
	snap       atomic.Pointer[Snapshot]
	version    atomic.Uint64
	applied    atomic.Uint64
	batches    atomic.Uint64
	logBytes   atomic.Int64  // bytes in segments since the last checkpoint
	logRecords atomic.Uint64 // records appended over the shard's lifetime
	logErrors  atomic.Uint64 // append/sync failures (durability degraded)
	segNum     atomic.Uint64 // current segment number (replication lag reads)
	segRecs    atomic.Uint64 // records in the current segment

	// Index maintenance counters (Stats): full builds, copy-on-write
	// updates, and publications that reused the previous index
	// wholesale because nothing changed; and over the updates, the
	// blocks patched and the blocks rewritten (index.Flat.Churn).
	idxBuilds    atomic.Uint64
	idxDeltas    atomic.Uint64
	idxReuses    atomic.Uint64
	idxPatched   atomic.Uint64
	idxRewritten atomic.Uint64
}

// segmentMaxBytes rotates a shard's op-log onto a fresh segment once
// the current one holds this many record bytes, compacting the closed
// segment (superseded same-node updates dropped) so recovery replay
// and follower catch-up stay bounded between checkpoints.
const segmentMaxBytes = 4 << 20

func newShard(idx int, cfg Config, be Backend) *shard {
	s := &shard{
		idx:      idx,
		cfg:      cfg,
		be:       be,
		ops:      make(chan op, cfg.QueueDepth),
		done:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
		dirty:    make(map[overlay.NodeID]bool),
		batchBuf: make([]op, 0, cfg.MaxBatch),
		resBuf:   make([]opResult, cfg.MaxBatch),
		recBuf:   make([]wal.Record, 0, cfg.MaxBatch),
		pubBuf:   make([]proto.Record, 0, cfg.MaxBatch),
		segMax:   segmentMaxBytes,
	}
	if cfg.Warmup > 0 {
		be.Step(cfg.Warmup)
	}
	for _, id := range be.Nodes() {
		if id >= s.nextLocal {
			s.nextLocal = id + 1
		}
	}
	s.publish() // initial snapshot, before the shard starts
	return s
}

// halt stops the shard for good: under the combiner lock it marks the
// shard stopped and closes the log (final flush + fsync), then closes
// done, which fails the parked callers no round served. It is
// idempotent — a second call waits for the first — so a shard already
// halted individually (e.g. by a test) survives the engine-wide Close.
func (s *shard) halt() {
	if s.halted.CompareAndSwap(false, true) {
		s.locked(func() error {
			s.stopped = true
			if s.log != nil {
				s.log.Close()
			}
			return nil
		})
		close(s.done)
	}
	<-s.done
}

// tick is the idle tick, under the combiner lock: the only place
// simulated time moves (the clock contract in serve.go). It steps the
// overlay up to wall time now and republishes under the new clock, so
// the protocol's periodic machinery runs at real time whatever the
// traffic.
func (s *shard) tick(now time.Time) {
	s.catchUp(s.base + sim.Time(now.Sub(s.started)/time.Microsecond))
	s.publishDelta()
}

// combine serves one round under the combiner lock: own (nil: none) as
// its first op, else the queue's head; batches drained from the queue
// after it, each applied and logged with its acks parked, until
// MaxBatch acks are pending or the queue is empty; then one
// publication, and the parked acks. It returns own's result. Acks go
// out only after the snapshot is live, so a caller whose write
// returned reads its own write.
func (s *shard) combine(own *op) opResult {
	var first op
	if own != nil {
		first = *own
	} else {
		select {
		case first = <-s.ops:
		default:
			return opResult{}
		}
	}
	var ownRes opResult
	for {
		batch := s.drain(first)
		results, muts := s.applyBatch(batch)
		// WAL discipline: the batch is durable (per the fsync policy)
		// before any caller learns its write was applied.
		s.logBatch(batch, results)
		if muts > 0 && s.epoch != nil {
			s.epoch.Add(1)
		}
		if own != nil {
			ownRes, own = results[0], nil
		}
		// The buffers persist across batches: park the replies, then
		// drop op/result references (reply channels, vectors, hooks)
		// so they do not outlive their batch.
		for i := range batch {
			if batch[i].reply != nil {
				s.pend = append(s.pend, pendingReply{batch[i].reply, results[i]})
			}
			batch[i] = op{}
			results[i] = opResult{}
		}
		// Coalesce publications under backlog: ops already queued
		// join this round, so one index update — the blocks the dirty
		// nodes leave or enter plus a directory rebuild, O(blocks)
		// however few nodes moved — amortizes over every batch of a
		// write burst instead of running per batch. MaxBatch pending
		// acks bound the added latency (and the dirty-set growth).
		// Only the lock holder receives from the queue, so a queue
		// seen non-empty here does not block.
		if len(s.pend) >= s.cfg.MaxBatch || len(s.ops) == 0 {
			break
		}
		first = <-s.ops
	}
	s.publishDelta()
	for i := range s.pend {
		s.pend[i].reply <- s.pend[i].res
		s.pend[i] = pendingReply{}
	}
	s.pend = s.pend[:0]
	return ownRes
}

// unlock releases the combiner lock, then kicks a parked caller if ops
// are still queued. Looking after the unlock is what loses no op (the
// shard comment); a spinning caller needs no kick, it serves its op
// itself once the lock is free.
func (s *shard) unlock() {
	s.mu.Unlock()
	if s.asleep.Load() > 0 && len(s.ops) > 0 {
		select {
		case s.kick <- struct{}{}:
		default: // a kick is pending already
		}
	}
}

// locked runs fn as the shard's writer: the door for everything that is
// not a writer's own op. It waits for the combiner lock, counted in
// waiters meanwhile, fails with ErrClosed once the shard has stopped,
// and releases through unlock, so a caller that parked while fn ran
// still gets its kick.
func (s *shard) locked(fn func() error) error {
	s.waiters.Add(1)
	s.mu.Lock()
	s.waiters.Add(-1)
	defer s.unlock()
	if s.stopped {
		return ErrClosed
	}
	return fn()
}

// serveQueued serves one round of queued ops if the combiner lock is
// free. A busy lock leaves nothing behind: its holder looks at the
// queue when it unlocks.
func (s *shard) serveQueued() {
	if s.mu.TryLock() {
		if !s.stopped {
			s.combine(nil)
		}
		s.unlock()
	}
}

// catchUp steps the overlay up to target in slices of at most
// StepQuantum, returning early after a slice that finds ops queued or a
// locked caller waiting (the next tick steps the rest). A backend at or
// past target is left alone.
func (s *shard) catchUp(target sim.Time) {
	for d := target - s.be.Now(); d > 0; d = target - s.be.Now() {
		s.be.Step(min(d, s.cfg.StepQuantum))
		if len(s.ops) > 0 || s.waiters.Load() > 0 {
			return
		}
	}
}

// drain gathers up to MaxBatch queued ops without blocking, reusing
// the shard's batch buffer (cap MaxBatch, allocated once).
func (s *shard) drain(first op) []op {
	batch := append(s.batchBuf[:0], first)
	for len(batch) < s.cfg.MaxBatch {
		select {
		case o := <-s.ops:
			batch = append(batch, o)
		default:
			return batch
		}
	}
	return batch
}

// applyBatch applies every op of the batch to the backend and
// returns the per-op results (backed by the shard's reusable result
// buffer) plus how many ops mutated state. It is the single
// application path: live batches, checkpoint restores and log
// replays all flow through here, so recovery is the same code as
// serving.
func (s *shard) applyBatch(batch []op) ([]opResult, int) {
	results := s.resBuf[:len(batch)]
	muts := 0
	for i := range batch {
		o := &batch[i]
		var res opResult
		switch o.kind {
		case opUpdate:
			res.err = s.be.SetAvailability(o.node, o.avail)
			if res.err == nil && o.announce {
				res.err = s.be.Announce(o.node)
			}
			if res.err == nil {
				s.dirty[o.node] = true
				muts++
			}
		case opJoin:
			res.node, res.err = s.be.Join()
			if res.err == nil && o.avail != nil {
				res.err = s.be.SetAvailability(res.node, o.avail)
				if res.err == nil {
					res.err = s.be.Announce(res.node)
				}
			}
			if res.err == nil {
				s.dirty[res.node] = true
				s.nextLocal = res.node + 1
				muts++
			}
		case opLeave:
			res.err = s.be.Leave(o.node)
			if res.err == nil {
				s.dirty[o.node] = false
				muts++
			}
		case opQuery:
			from := o.node
			if from < 0 {
				// Caller left the entry point open: use the
				// lowest-id alive node as the querying agent.
				nodes := s.be.Nodes()
				if len(nodes) == 0 {
					res.err = fmt.Errorf("%w: shard %d", ErrNoNodes, s.idx)
					break
				}
				from = nodes[0]
			}
			res.recs, res.hops, res.err = s.be.Query(from, o.demand, o.k)
			// The overlay's index keeps a departed node's records until
			// they expire, and the protocol returns them like any
			// other: answer with the nodes alive here only.
			res.recs = slices.DeleteFunc(res.recs, func(r proto.Record) bool { return !s.be.Alive(r.Node) })
		case opTake:
			// Migration source half: capture the availability, then
			// remove the node — one op, so no write can interleave.
			if !s.be.Alive(o.node) {
				res.err = fmt.Errorf("serve: node %d not on shard %d", o.node, s.idx)
				break
			}
			// The last node of a shard stays put: the CAN overlay
			// cannot lose its last owner.
			if s.be.Size() <= 1 {
				res.err = fmt.Errorf("%w: shard %d", ErrLastNode, s.idx)
				break
			}
			res.avail = s.be.Availability(o.node)
			if res.avail != nil && res.avail.Sum() == 0 {
				// Never-published availability reads back as a zero
				// vector; don't turn that into an explicit zero
				// announcement on the destination.
				res.avail = nil
			}
			res.err = s.be.Leave(o.node)
			if res.err != nil {
				res.avail = nil
			} else {
				s.dirty[o.node] = false
				muts++
			}
		}
		if o.onApplied != nil {
			o.onApplied(res)
		}
		results[i] = res
	}
	s.applied.Add(uint64(len(batch)))
	s.batches.Add(1)
	return results, muts
}

// logBatch appends every successfully applied mutation of the batch
// to the shard's op-log, forwards it to the replication sink, and
// applies the fsync policy: one Sync per FsyncEvery applied batches
// (default every batch), aligned with the MaxBatch drain so a burst
// of writes costs one fsync, not one per record. A log failure
// degrades durability, not serving — the shard keeps running on its
// in-memory state — but it is no longer silent: every mutating op of
// the failed batch has its result overridden with ErrWAL, so its
// writers (and replay) learn the write is not durable instead of being
// acked as if it were (Stats.LogErrors still counts the failures).
// When the current segment outgrows segmentMaxBytes the log rotates
// and the closed segment is compacted (followers rotate on their
// primary's stream positions instead).
func (s *shard) logBatch(batch []op, results []opResult) {
	snk := s.captureSink()
	if s.log == nil && snk == nil {
		return
	}
	recs := s.batchRecords(batch, results)
	s.recBuf = recs[:0]
	if len(recs) == 0 {
		return
	}
	// The capture stream sees the batch whether or not a log exists
	// (in-memory engines record traces too) and regardless of the
	// append outcome below: the records describe state that IS applied
	// in memory, which is what a replay reproduces. recs aliases the
	// shard's reusable buffer; the sink copies what it keeps.
	if snk != nil {
		snk.CaptureMutations(s.idx, recs)
	}
	if s.log == nil {
		return
	}
	before := s.log.Size()
	if err := s.log.Append(recs...); err != nil {
		s.logErrors.Add(1)
		s.failBatch(batch, results, err)
		return
	}
	s.logRecords.Add(uint64(len(recs)))
	s.logBytes.Add(s.log.Size() - before)
	// The sink sees the batch only after it is in the log (buffered;
	// the fsync policy below bounds its durability), at the position
	// the records landed — a follower can never hold records its
	// primary's log does not. recs aliases the shard's reusable
	// buffer: the sink copies what it keeps (and only when a
	// follower is attached), so a sink with no sessions costs no
	// allocation here.
	if p := s.sink.Load(); p != nil {
		(*p).ReplRecords(s.idx, s.log.Seg(), s.segRecs.Load(), s.replEpoch.Load(), recs)
	}
	s.segRecs.Add(uint64(len(recs)))
	s.unsynced++
	if s.cfg.FsyncEvery > 0 && s.unsynced >= s.cfg.FsyncEvery {
		s.disk.Store(true)
		err := s.log.Sync()
		s.disk.Store(false)
		if err != nil {
			s.logErrors.Add(1)
			s.failBatch(batch, results, err)
			return
		}
		s.unsynced = 0
	}
	if s.log.Size() >= s.segMax && (s.readOnly == nil || !s.readOnly.Load()) {
		s.rotate(s.log.Seg()+1, true)
	}
}

// captureSink returns the attached capture sink, or nil.
func (s *shard) captureSink() CaptureSink {
	if s.capture == nil {
		return nil
	}
	if p := s.capture.Load(); p != nil {
		return *p
	}
	return nil
}

// batchRecords builds the canonical wal records of every
// successfully applied mutation of the batch, into the shard's
// reusable record buffer — the one op→Record mapping shared by the
// op-log append, the replication sink and the capture stream.
func (s *shard) batchRecords(batch []op, results []opResult) []wal.Record {
	recs := s.recBuf[:0]
	for i := range batch {
		if results[i].err != nil {
			continue
		}
		o := &batch[i]
		switch o.kind {
		case opUpdate:
			recs = append(recs, wal.Record{
				Kind: wal.KindUpdate, Node: uint32(o.node),
				Announce: o.announce, Avail: o.avail,
			})
		case opJoin:
			r := wal.Record{Kind: wal.KindJoin, Node: uint32(results[i].node), Avail: o.avail}
			if o.mig != nil {
				r.Repoint, r.Ext, r.Old = true, uint64(o.mig.ext), uint64(o.mig.old)
			}
			recs = append(recs, r)
		case opLeave:
			recs = append(recs, wal.Record{Kind: wal.KindLeave, Node: uint32(o.node)})
		case opTake:
			if o.fedTake {
				// The matching re-join lives in another process's
				// WAL, so recovery here must never roll the node
				// back: log the removal as a plain leave.
				recs = append(recs, wal.Record{Kind: wal.KindLeave, Node: uint32(o.node)})
				break
			}
			// The captured availability rides the take record so a
			// recovery that finds the take durable but the matching
			// join lost can roll the node back onto this shard.
			recs = append(recs, wal.Record{Kind: wal.KindTake, Node: uint32(o.node), Avail: results[i].avail})
		}
	}
	return recs
}

// failBatch overrides every applied mutation's result with ErrWAL:
// the write is live in memory but did not reach the log, and its
// writer must not mistake it for a durable acknowledgment.
func (s *shard) failBatch(batch []op, results []opResult, cause error) {
	for i := range batch {
		if results[i].err == nil && batch[i].kind != opQuery {
			results[i].err = fmt.Errorf("%w: %v", ErrWAL, cause)
		}
	}
}

// rotate moves the log onto segment seg and, when compact is set,
// compacts the closed segment (superseded same-node updates dropped
// — deterministic, so a follower compacting at the same record
// boundary produces identical bytes). Checkpoint rotations skip the
// compaction: the segments they close are pruned moments later, and
// a full rewrite+fsync of a doomed file would be pure waste. A
// compaction failure is counted, not fatal; a rotation failure
// leaves the shard logging on the old segment.
func (s *shard) rotate(seg uint64, compact bool) error {
	s.disk.Store(true)
	defer s.disk.Store(false)
	closed := wal.SegmentPath(s.log.Dir(), s.log.Seg())
	if err := s.log.Rotate(seg, s.replEpoch.Load()); err != nil {
		s.logErrors.Add(1)
		return err
	}
	s.segNum.Store(seg)
	s.segRecs.Store(0)
	s.unsynced = 0
	if compact {
		if saved, err := wal.CompactSegment(closed); err != nil {
			s.logErrors.Add(1)
		} else {
			s.logBytes.Add(-saved)
		}
	}
	return nil
}

// syncLog flushes and fsyncs the op-log and returns its exact position
// — the handshake read point a catching-up follower's disk stream
// starts from. Combiner.
func (s *shard) syncLog() (ReplPos, error) {
	if s.log == nil {
		return ReplPos{}, ErrNotDurable
	}
	s.disk.Store(true)
	defer s.disk.Store(false)
	if err := s.log.Sync(); err != nil {
		s.logErrors.Add(1)
		return ReplPos{}, err
	}
	s.unsynced = 0
	return ReplPos{Seg: s.log.Seg(), Pos: s.segRecs.Load()}, nil
}

// checkpointNow runs under the combiner lock: it rotates the log onto
// a fresh segment and captures the shard's logical state at exactly
// that boundary — the old segments plus the captured state are two
// encodings of the same history, so recovery may substitute one for
// the other.
func (s *shard) checkpointNow() (wal.ShardState, error) {
	if err := s.rotate(s.log.Seg()+1, false); err != nil {
		return wal.ShardState{}, err
	}
	s.logBytes.Store(0)
	st := wal.ShardState{
		Shard:    s.idx,
		NextID:   uint32(s.nextLocal),
		FirstSeg: s.log.Seg(),
	}
	for _, id := range s.be.Nodes() {
		st.Nodes = append(st.Nodes, wal.NodeState{
			Node:  uint32(id),
			Avail: s.be.Availability(id),
		})
	}
	return st, nil
}

// record builds one node's published record: its id and its current
// availability, which the backend returns as a copy.
func (s *shard) record(id overlay.NodeID) proto.Record {
	return proto.Record{Node: id, Avail: s.be.Availability(id)}
}

// publish builds and atomically installs a fresh immutable snapshot
// from the backend's whole population — the from-scratch path used at
// startup and after recovery replay.
func (s *shard) publish() {
	now := s.be.Now()
	nodes := s.be.Nodes()
	recs := make([]proto.Record, 0, len(nodes))
	for _, id := range nodes {
		recs = append(recs, s.record(id))
	}
	clear(s.dirty)
	s.flat = index.Build(recs, s.cfg.CMax)
	s.idxBuilds.Add(1)
	s.installSnap(now, true)
}

// publishDelta publishes the post-batch snapshot at a cost that
// follows the batch, not the population: the dirty nodes are re-read
// from the backend and the index patches or rewrites only the blocks
// they leave or enter (index.Update); with nothing dirty (idle ticks,
// query-only batches) the previous index is republished as it is
// under a fresh clock.
func (s *shard) publishDelta() {
	now := s.be.Now()
	if len(s.dirty) == 0 {
		s.idxReuses.Add(1)
		s.installSnap(now, false)
		return
	}
	recs := s.pubBuf[:0]
	for id, alive := range s.dirty {
		if alive {
			recs = append(recs, s.record(id))
		}
	}
	slices.SortFunc(recs, func(a, b proto.Record) int { return cmp.Compare(a.Node, b.Node) })
	s.flat = s.flat.Update(recs, s.dirty)
	clear(recs)
	s.pubBuf = recs[:0]
	patched, rewritten := s.flat.Churn()
	s.idxPatched.Add(uint64(patched))
	s.idxRewritten.Add(uint64(rewritten))
	s.idxDeltas.Add(1)
	clear(s.dirty)
	s.installSnap(now, true)
}

// installSnap publishes the shard's current index, a new one when
// changed (its Version becomes indexed).
func (s *shard) installSnap(now sim.Time, changed bool) {
	v := s.version.Add(1)
	if changed {
		s.indexed = v
	}
	s.snap.Store(&Snapshot{
		Shard:   s.idx,
		Version: v,
		Taken:   now,
		flat:    s.flat,
		indexed: s.indexed,
	})
}

// snapshot returns the current published snapshot (never nil after
// newShard).
func (s *shard) snapshot() *Snapshot { return s.snap.Load() }

// spinMax bounds how long await spins before it parks. A
// mixed_write_10k round (apply plus publication on 2 500 records) takes
// a few µs, while a write that parked there had a p99 of 135–147 µs on
// a 2-core VM. BenchmarkEngineMixed -cpu 2 on that VM parked ≈ 0.002,
// 0.0007 and 0.0006 of its updates at 20, 50 and 100 µs, with ns/op
// alike within noise: past 50 µs a longer spin saves few wake-ups, and
// the rounds those writers wait for (an idle tick's catch-up slice, a
// protocol query) run for milliseconds.
const spinMax = 50 * time.Microsecond

// await waits for a queued op's result. A parked caller is woken onto
// the run queue of the goroutine that sends its reply, which keeps
// running, so the caller's own core idles until the scheduler moves it
// over: a wake-up costs more than most rounds. So the caller first
// waits on its own core: it polls its buffered reply — a send into a
// buffer no receiver waits on wakes nobody — and serves the queue
// itself whenever the lock is free (serveQueued), until its result
// comes. It parks after spinMax, or at once while the holder waits on
// an fsync of the op-log (disk): spinning through a sync outlasts the
// bound and takes the core from the holder's syscall and the other
// callers. A parker counts itself in asleep, takes one last look, and
// waits for its reply or a kick, which sends it back to serve the
// queue (the shard comment). It returns ErrClosed once the shard has
// stopped with the op unserved.
func (s *shard) await(reply chan opResult) (opResult, error) {
	for start := time.Now(); !s.disk.Load(); runtime.Gosched() {
		s.serveQueued()
		select {
		case r := <-reply:
			return r, nil
		default:
		}
		if time.Since(start) >= spinMax {
			break
		}
	}
	s.parked.Add(1)
	s.asleep.Add(1)
	defer s.asleep.Add(-1)
	for {
		s.serveQueued()
		select {
		case r := <-reply:
			return r, nil
		case <-s.kick:
		case <-s.done:
			// A round may have served the op right before the shard
			// stopped; prefer the real result if it is already buffered.
			select {
			case r := <-reply:
				return r, nil
			default:
				return opResult{}, ErrClosed
			}
		}
	}
}

// submit runs o and returns its result. With the combiner lock free
// and nothing queued ahead of it, the caller is the shard's writer: it
// serves o as the first op of a round and takes its result from the
// round, no queue and no goroutine switch between. Otherwise o is
// queued behind the others with a reply channel, counted in queued,
// and the caller waits for it in await, serving rounds while the lock
// is free. It fails with ErrClosed once the shard has stopped.
func (s *shard) submit(o op) (opResult, error) {
	if s.mu.TryLock() {
		if s.stopped {
			s.mu.Unlock()
			return opResult{}, ErrClosed
		}
		if len(s.ops) == 0 {
			res := s.combine(&o)
			s.unlock()
			return res, nil
		}
		// FIFO: o queues behind them. The queue needs no look here:
		// await's serveQueued, or the holder that beats it to the lock,
		// serves it once o is in it.
		s.mu.Unlock()
	}
	s.queued.Add(1)
	o.reply = make(chan opResult, 1)
	select {
	case s.ops <- o:
	default: // full: serve a round before blocking
		s.serveQueued()
		select {
		case s.ops <- o:
		case <-s.done:
			return opResult{}, ErrClosed
		}
	}
	return s.await(o.reply)
}
