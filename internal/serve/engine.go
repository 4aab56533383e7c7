package serve

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/serve/index"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// Engine is the concurrent query-serving front of a sharded PID-CAN
// deployment. All methods are safe for concurrent use; see the
// package comment for the threading model.
type Engine struct {
	cfg    Config
	shards []*shard
	places []Placement // shards behind the Placement interface, same order
	cache  *queryCache
	fwd    *ForwardTable // migrated-node id forwarding; owns the placement operations

	nextShard atomic.Uint64 // round-robin join target
	nextQuery atomic.Uint64 // round-robin consistent-query target

	// epoch is the engine-wide write epoch: each shard bumps it once
	// per applied batch that mutated state.
	epoch atomic.Uint64

	// availSum caches the availability summary AvailSummary computes
	// for federation pruning, keyed on epoch: read-mostly workloads
	// answer repeated summary exchanges without rescanning snapshots.
	availSum atomic.Pointer[availSummary]

	// reads are the counters every query writes, striped (readStripe).
	reads         [readStripes]readStripe
	consistent    atomic.Uint64
	updates       atomic.Uint64
	joins         atomic.Uint64
	leaves        atomic.Uint64
	migrations    atomic.Uint64
	rebalances    atomic.Uint64
	lastImbalance atomic.Uint64 // Float64bits of the last sampled max/min ratio
	errors        atomic.Uint64

	// Durability state (DataDir engines only).
	ckptMu sync.Mutex // serializes checkpoint passes
	// migMu is the migration/checkpoint barrier: Migrate holds the
	// read side across its take+join pair; a checkpoint pass holds
	// the write side while rotating the shard logs, so no migration
	// straddles a checkpoint boundary with only its take covered.
	migMu         sync.RWMutex
	ckptSeq       atomic.Uint64
	checkpoints   atomic.Uint64
	recoveryNanos atomic.Int64 // duration of the last startup recovery
	recoveredRecs atomic.Uint64
	warmStart     bool // set before serving starts

	// Replication state. follower marks the read-only role (writes
	// fail with ErrReadOnly until promotion lifts it); fencedBy is
	// the newer epoch a deposed primary learned of (0: not fenced);
	// replEpoch is this engine's replication epoch, stamped into
	// segment headers, checkpoints and every streamed frame. The
	// sink, when set, receives every logged batch (the repl server's
	// fan-out hub); the lag/connected/follower-count gauges are fed
	// by the repl client and server for Stats.
	follower      atomic.Bool
	fencedBy      atomic.Uint64
	replEpoch     atomic.Uint64
	replSink      atomic.Pointer[ReplSink]
	replFollowers atomic.Int64
	replConnected atomic.Bool
	replLag       atomic.Int64
	replLagMS     atomic.Int64
	promoterMu    sync.Mutex
	promoter      func() (uint64, error)
	// wireStats, when set, feeds the wire serving edge's gauges into
	// Stats (the wire server's counters; see SetWireStats).
	wireStats atomic.Pointer[func() WireStats]
	// capture, when set, receives every answered query and applied
	// mutation for trace recording (see SetCapture).
	capture atomic.Pointer[CaptureSink]
	// loops holds the done channel of every periodic loop started
	// (every); loopMu orders the starts of the loops deferred to
	// promotion on followers (loopsOn) against Close's teardown waits.
	loopMu  sync.Mutex
	loops   []chan struct{}
	loopsOn bool

	closed      atomic.Bool
	stop        chan struct{} // closed by Close; aborts waits and stops the loops
	rebalanceMu sync.Mutex    // serializes rebalance passes (manual vs background)
}

// readStripe is one stripe of the counters every query writes: a query
// adds to the stripe it picks (Engine.stripe), Stats and the checkpoint
// sum them. Striping keeps concurrent queries off one shared cache
// line; 128 bytes a stripe puts any two stripes' counters at least a
// cache line apart.
type readStripe struct {
	n [rdCounters]atomic.Uint64
	_ [128 - rdCounters*8]byte
}

// The counters of a readStripe, by index.
const (
	rdQueries     = iota // queries answered (Stats.Queries)
	rdSearches           // snapshot-path index searches: uncached queries + cache fills
	rdScanned            // records those searches visited
	rdCands              // candidates they merged before ranking
	rdHits               // cache hits, rechecked or not
	rdMisses             // cache misses
	rdStale              // misses whose recheck failed
	rdRevalidated        // hits that needed a recheck
	rdRescanned          // records the rechecks visited
	rdCounters
)

// readStripes is the number of stripes, a power of two.
const readStripes = 8

// stripe picks the stripe of one query, from the calling thread's own
// generator.
func (e *Engine) stripe() *readStripe { return &e.reads[rand.Uint32()&(readStripes-1)] }

// readCounts sums the stripes.
func (e *Engine) readCounts() (sum [rdCounters]uint64) {
	for i := range e.reads {
		for c := range sum {
			sum[c] += e.reads[i].n[c].Load()
		}
	}
	return sum
}

// QueryRequest is one best-fit multi-dimensional range query: find
// up to K nodes whose advertised availability dominates Demand,
// ranked closest-fit first.
type QueryRequest struct {
	// Demand is the requested resource vector (cfg.CMax layout).
	Demand vector.Vec `json:"demand"`
	// K bounds the candidate count (default 1; <= 0 after default
	// resolution means 1).
	K int `json:"k,omitempty"`
	// Consistent routes the query through one shard's write path
	// and the paper's three-phase protocol instead of the lock-free
	// snapshot path, the shards taken round-robin. Slower, and it
	// searches that shard's overlay only, but it observes every
	// write applied before it there.
	Consistent bool `json:"consistent,omitempty"`
	// NoCache bypasses the query cache (snapshot path only).
	NoCache bool `json:"no_cache,omitempty"`
}

// QueryResponse is the outcome of one query.
type QueryResponse struct {
	// Candidates are the qualified nodes, best fit first.
	Candidates []Candidate `json:"candidates"`
	// Cached reports whether the response was served from the query
	// cache.
	Cached bool `json:"cached,omitempty"`
	// Hops is the protocol message count of a consistent query (the
	// snapshot path spends no protocol messages).
	Hops int `json:"hops,omitempty"`
	// ShardsQueried counts the shards whose protocol answered a
	// consistent query: always 1. A federation router also reports
	// how many members its snapshot gather consulted.
	ShardsQueried int `json:"shards_queried,omitempty"`
}

// ShardStats describes one shard in Stats.
type ShardStats struct {
	Shard           int      `json:"shard"`
	Nodes           int      `json:"nodes"`
	SnapshotVersion uint64   `json:"snapshot_version"`
	SimNow          sim.Time `json:"sim_now_us"`
	QueueDepth      int      `json:"queue_depth"`
	OpsApplied      uint64   `json:"ops_applied"`
	Batches         uint64   `json:"batches"`
	// WritesQueued counts the write-path calls (updates, joins,
	// leaves, migration halves and consistent queries) that found the
	// shard's combiner lock taken or ops queued ahead of them, and
	// WritesParked those of them whose caller stopped spinning and
	// slept until its result came: parked/queued is the share of
	// contended writes that paid a wake-up.
	WritesQueued uint64 `json:"writes_queued"`
	WritesParked uint64 `json:"writes_parked"`
	// LogBytes is the shard's op-log volume since its last
	// checkpoint rotation (0 on in-memory engines). Sums to the
	// engine-wide wal_bytes.
	LogBytes int64 `json:"wal_bytes,omitempty"`
}

// Stats is a point-in-time view of engine counters.
type Stats struct {
	Shards      []ShardStats `json:"shards"`
	TotalNodes  int          `json:"total_nodes"`
	Dims        int          `json:"dims"`
	CMax        vector.Vec   `json:"cmax"`
	Queries     uint64       `json:"queries"`
	CacheHits   uint64       `json:"cache_hits"`
	CacheMisses uint64       `json:"cache_misses"`
	// CacheEntries counts the cache slots holding an answer.
	// CacheRevalidated counts the hits whose key's entry was read from
	// an index a shard has since replaced, and which a recheck of the
	// moved shards kept; CacheStale the misses whose recheck failed (the
	// other misses are compulsory: no entry, or another key's); and
	// CacheRescanned the records every recheck visited, kept or failed.
	// CacheResets and CacheAdaptions are always 0: the cache has no
	// generations and no grid controller, and the fields stay only for
	// the repo benchmark, which reads them.
	CacheEntries     int    `json:"cache_entries"`
	CacheStale       uint64 `json:"cache_stale"`
	CacheRevalidated uint64 `json:"cache_revalidated"`
	CacheRescanned   uint64 `json:"cache_rescanned"`
	CacheResets      uint64 `json:"cache_resets"`
	CacheAdaptions   uint64 `json:"cache_adaptions"`
	// IndexSearches counts snapshot-path index searches (uncached
	// queries + cache fills; a cache recheck is not one),
	// IndexScannedRecords the records those searches visited —
	// scanned/searches vs total_nodes is the
	// sub-linearity gauge of the read path — and IndexCandidates the
	// candidates they merged before ranking: candidates/searches vs k
	// is how much of what a search collects it uses. IndexBuilds counts full
	// per-shard index builds, IndexDeltaBuilds incremental
	// (merge-with-dirty-nodes) rebuilds, and IndexReuses
	// publications that reused the previous records + index
	// wholesale because the batch changed nothing. Over those
	// rebuilds, IndexPatchedBlocks counts the blocks written as
	// patches of their predecessor (dead bits plus a small tail) and
	// IndexRewrittenBlocks the predecessor blocks rewritten in full:
	// patched/(patched+rewritten) is the share of write traffic on the
	// cheap path.
	IndexSearches        uint64 `json:"index_searches"`
	IndexScannedRecords  uint64 `json:"index_scanned_records"`
	IndexCandidates      uint64 `json:"index_candidates"`
	IndexBuilds          uint64 `json:"index_builds"`
	IndexDeltaBuilds     uint64 `json:"index_delta_builds"`
	IndexReuses          uint64 `json:"index_reuses"`
	IndexPatchedBlocks   uint64 `json:"index_patched_blocks"`
	IndexRewrittenBlocks uint64 `json:"index_rewritten_blocks"`
	Consistent           uint64 `json:"consistent_queries"`
	Updates              uint64 `json:"updates"`
	Joins                uint64 `json:"joins"`
	Leaves               uint64 `json:"leaves"`
	// Migrations counts completed cross-shard node migrations;
	// Rebalances counts rebalance passes run (background or manual).
	Migrations uint64 `json:"migrations"`
	Rebalances uint64 `json:"rebalances"`
	// ForwardedIDs is the number of stale node ids the forwarding
	// table keeps routable for migrated nodes.
	ForwardedIDs int `json:"forwarded_ids"`
	// LastImbalance is the max/min shard-population ratio sampled by
	// the most recent rebalance pass (0 until one runs).
	LastImbalance float64 `json:"last_imbalance"`
	Errors        uint64  `json:"errors"`

	// Durable reports whether the engine runs with a DataDir (an
	// op-log behind the write path); the fields below are zero
	// without one.
	Durable bool `json:"durable,omitempty"`
	// WriteEpoch counts applied batches that mutated shard state.
	WriteEpoch uint64 `json:"write_epoch,omitempty"`
	// LogBytes/LogRecords aggregate the shards' op-logs: bytes since
	// the last checkpoint, records over the engine's lifetime.
	// LogErrors counts append/fsync failures (durability degraded,
	// serving unaffected). LogSyncs counts the op-logs' fsyncs since
	// the engine opened them: one per synced write batch (see
	// Config.FsyncEvery) and one per segment a rotation or Close
	// seals, so LogSyncs over acked writes reads off fsyncs per write.
	LogBytes   int64  `json:"wal_bytes,omitempty"`
	LogRecords uint64 `json:"wal_records,omitempty"`
	LogErrors  uint64 `json:"wal_errors,omitempty"`
	LogSyncs   uint64 `json:"wal_syncs,omitempty"`
	// Checkpoints counts completed checkpoint passes (periodic,
	// explicit and on Close); CheckpointSeq is the latest sequence
	// number on disk.
	Checkpoints   uint64 `json:"checkpoints,omitempty"`
	CheckpointSeq uint64 `json:"checkpoint_seq,omitempty"`
	// WarmStart reports that this engine recovered prior state at
	// startup; LastRecoveryMS is how long that took and
	// RecoveredRecords how many log records it replayed beyond the
	// checkpoint.
	WarmStart        bool    `json:"warm_start,omitempty"`
	LastRecoveryMS   float64 `json:"last_recovery_ms,omitempty"`
	RecoveredRecords uint64  `json:"recovered_records,omitempty"`

	// Replication. Role is "primary", "follower", or "fenced" (a
	// deposed primary that learned of a newer epoch); Epoch is the
	// current replication epoch. On a primary, ReplFollowers counts
	// attached follower sessions. On a follower, ReplConnected
	// reports a live stream to the primary (PrimaryAddr),
	// ReplLagRecords how many records the primary's current segments
	// hold beyond what this follower has applied (from the last
	// heartbeat; approximate), and ReplLagMS how old that heartbeat
	// was when the stream reached it: the primary's clock at send
	// against this follower's, so across hosts it carries their skew
	// (negative readings report as 0).
	Role           string `json:"role,omitempty"`
	Epoch          uint64 `json:"epoch,omitempty"`
	ReplFollowers  int    `json:"repl_followers,omitempty"`
	ReplConnected  bool   `json:"repl_connected,omitempty"`
	ReplLagRecords int64  `json:"repl_lag_records,omitempty"`
	ReplLagMS      int64  `json:"repl_lag_ms,omitempty"`
	PrimaryAddr    string `json:"primary_addr,omitempty"`

	// Wire serving edge (internal/serve/wire), populated when a wire
	// server is attached via SetWireStats. WireConns is the live
	// persistent-connection count; WireRequests counts frames served
	// and WireRejected the frames the stateless filter or CRC refused.
	WireConns    int    `json:"wire_conns,omitempty"`
	WireRequests uint64 `json:"wire_requests,omitempty"`
	WireRejected uint64 `json:"wire_rejected,omitempty"`

	// Trace capture (internal/serve/capture), fed by a recorder
	// attached via SetCapture: records captured, records dropped by
	// the bounded ring (the drop-not-block backpressure policy), and
	// trace bytes written. Deliberately not omitempty: operators and
	// smoke checks can always see the gauges, zero or not.
	CaptureRecords uint64 `json:"capture_records"`
	CaptureDropped uint64 `json:"capture_dropped"`
	CaptureBytes   uint64 `json:"capture_bytes"`
}

// WireStats is the gauge set a wire front-end feeds into Stats.
type WireStats struct {
	Conns    int
	Requests uint64
	Rejected uint64
}

// New builds an engine: the factory is invoked once per shard, each
// backend is warmed up and snapshotted, then the engine's idle tick
// starts. New calls the factory from its own goroutine, in shard order
// and never twice at once, so a factory may share state such as a
// generator across shards. Each backend's warm-up step, first snapshot
// and index build run on a goroutine of their own while the next
// factory call makes the next backend; New waits for all of them
// before it recovers or returns, on a factory error too.
//
// With a DataDir configured, New then recovers: it loads the
// latest valid checkpoint and replays every newer op-log segment
// through the same batch-application path live writes use, so a
// restarted engine serves the identical node populations,
// availability vectors, forwarding state and query results its
// predecessor acknowledged (ErrRecovery wraps any failure). On a
// factory error New returns without teardown: no goroutine of the
// engine has started yet, so the already-built backends hold no
// resources beyond memory and are left to the garbage collector.
func New(cfg Config, factory BackendFactory) (*Engine, error) {
	e, err := build(cfg, factory)
	if err != nil {
		return nil, err
	}
	e.start()
	return e, nil
}

// build is New short of starting any goroutine: shards built, warmed
// up, recovered, snapshotted. Tests install the clock seam in between.
func build(cfg Config, factory BackendFactory) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		cache: new(queryCache),
		stop:  make(chan struct{}),
	}
	e.fwd = NewForwardTable(2*(cfg.FlushInterval+readHold), GlobalID.Shard, e.stop)
	e.replEpoch.Store(1) // cold start; recovery overrides from disk
	e.follower.Store(cfg.Follower)
	// The factory runs here, in shard order, one call at a time; each
	// backend's warm-up and first snapshot run on a goroutine of its
	// own while the next factory call builds the next backend.
	e.shards = make([]*shard, cfg.Shards)
	var wg sync.WaitGroup
	for i := range e.shards {
		be, err := factory(i, cfg)
		if err != nil {
			wg.Wait() // leave no shard being built behind
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.shards[i] = newShard(i, cfg, be)
		}()
	}
	wg.Wait()
	for _, s := range e.shards {
		s.epoch = &e.epoch
		s.replEpoch = &e.replEpoch
		s.sink = &e.replSink
		s.readOnly = &e.follower
		s.capture = &e.capture
		e.places = append(e.places, &shardPlacement{e: e, s: s})
	}
	if cfg.DataDir != "" {
		if err := e.recover(); err != nil {
			// No goroutine has started; release any log handles the
			// partial recovery opened.
			for _, s := range e.shards {
				if s.log != nil {
					s.log.Close()
				}
			}
			return nil, fmt.Errorf("%w: %v", ErrRecovery, err)
		}
	}
	return e, nil
}

// start reads each shard's clock base, which hands its Backend over to
// the combiner lock (the constructor goroutine must not touch it
// afterwards), and starts the idle tick and the background loops. The
// engine runs no goroutine per shard.
func (e *Engine) start() {
	for _, s := range e.shards {
		s.started, s.base = time.Now(), s.be.Now()
	}
	e.loops = append(e.loops, e.every(e.cfg.FlushInterval, e.tick))
	// Followers defer the write-driving background loops (the
	// rebalancer migrates, the checkpointer rotates segments the
	// primary's stream did not) until promotion starts them.
	if !e.cfg.Follower {
		e.startLoops()
	}
}

// startLoops launches the configured background loops that are
// deferred on followers: the adaptive rebalancer and the periodic
// checkpointer, whose errors surface through Stats.Errors. Idempotent;
// ordered against Close via loopMu.
func (e *Engine) startLoops() {
	e.loopMu.Lock()
	defer e.loopMu.Unlock()
	if e.closed.Load() || e.loopsOn {
		return
	}
	e.loopsOn = true
	if e.cfg.RebalanceInterval > 0 && e.cfg.Shards > 1 {
		e.loops = append(e.loops, e.every(e.cfg.RebalanceInterval, func() { e.Rebalance() }))
	}
	if e.cfg.DataDir != "" && e.cfg.CheckpointEvery > 0 {
		e.loops = append(e.loops, e.every(e.cfg.CheckpointEvery, func() { e.checkpoint() }))
	}
}

// every calls fn every interval on a goroutine of its own until Close,
// and returns a channel closed once that goroutine has returned.
func (e *Engine) every(interval time.Duration, fn func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return done
}

// tick is the idle tick (the clock contract, serve.go): it runs each
// shard's tick under its combiner lock, one shard after another,
// skipping a halted shard.
func (e *Engine) tick() {
	for _, s := range e.shards {
		s.locked(func() error {
			s.tick(time.Now())
			return nil
		})
	}
}

// Config returns the resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetWireStats attaches a wire serving edge's gauge feed (typically
// a wire Server's Stats method) so Stats reports the wire_* fields.
// nil detaches. Safe to call on a serving engine.
func (e *Engine) SetWireStats(f func() WireStats) {
	if f == nil {
		e.wireStats.Store(nil)
		return
	}
	e.wireStats.Store(&f)
}

// Close stops the idle tick and the background loops and waits for
// them, writes a final clean checkpoint (durable engines), and halts
// every shard — which flushes and fsyncs each op-log, so the next New
// warm-restarts without replay. Queued but unapplied writes are
// dropped; concurrent and subsequent calls fail with ErrClosed.
func (e *Engine) Close() error {
	return e.close(true)
}

// close implements Close. Skipping the final checkpoint (crash-style
// shutdown) is how crash-recovery tests exercise log replay.
func (e *Engine) close(checkpoint bool) error {
	if !e.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	close(e.stop)
	e.loopMu.Lock() // a concurrent promotion may have just started some
	loops := e.loops
	e.loopMu.Unlock()
	for _, done := range loops {
		<-done
	}
	var ckptErr error
	if checkpoint && e.cfg.DataDir != "" && !e.follower.Load() {
		// The shards are still running: the final capture drains
		// whatever the write queues already accepted. A follower
		// skips this: its checkpoints and rotations come from the
		// primary's stream, and a local rotation would fork the
		// mirror (its log is already flushed and fsynced when each
		// shard halts, so a restart replays nothing extra anyway).
		_, ckptErr = e.checkpoint()
	}
	for _, s := range e.shards {
		s.halt()
	}
	return ckptErr
}

// writable gates the write path by role: a fenced deposed primary
// rejects everything, a follower rejects with a redirect to its
// primary. Queries never come through here — reads work in every
// role — and neither does the replication applier, whose writes ARE
// the primary's.
func (e *Engine) writable() error {
	if by := e.fencedBy.Load(); by != 0 {
		return fmt.Errorf("%w (saw epoch %d, ours %d)", ErrFenced, by, e.replEpoch.Load())
	}
	if e.follower.Load() {
		if e.cfg.PrimaryAddr != "" {
			return fmt.Errorf("%w (writes go to the primary at %s)", ErrReadOnly, e.cfg.PrimaryAddr)
		}
		return ErrReadOnly
	}
	return nil
}

// Query answers one best-fit range query. The default path reads
// every shard's published snapshot lock-free, merges the qualified
// records and ranks them by surplus; it consults the query cache
// first unless the request opts out. The candidates are one new slice
// of their own size.
func (e *Engine) Query(req QueryRequest) (QueryResponse, error) { return e.QueryAppend(nil, req) }

// QueryAppend is Query appending the candidates to dst: the response's
// Candidates is dst with the answer appended, so a caller that passes
// a buffer of its own (dst[:0]) is answered without an allocation.
func (e *Engine) QueryAppend(dst []Candidate, req QueryRequest) (QueryResponse, error) {
	resp, err := e.query(dst, req)
	if p := e.capture.Load(); p != nil {
		// A copy, so that resp itself does not escape on every query.
		r := resp
		(*p).CaptureQuery(req, &r, err)
	}
	return resp, err
}

// query implements QueryAppend; the wrapper adds capture emission.
func (e *Engine) query(dst []Candidate, req QueryRequest) (QueryResponse, error) {
	if e.closed.Load() {
		return QueryResponse{}, ErrClosed
	}
	if err := CheckDemand(req.Demand, e.cfg.CMax); err != nil {
		e.errors.Add(1)
		return QueryResponse{}, err
	}
	if req.K <= 0 {
		req.K = 1
	}
	st := e.stripe()
	st.n[rdQueries].Add(1)
	if req.Consistent {
		resp, err := e.consistentQuery(req)
		resp.Candidates = append(dst, resp.Candidates...)
		return resp, err
	}

	// A cacheable query is answered from its key's slot, hit or fill:
	// the uncached answer, bit for bit.
	at := len(dst)
	var (
		slot    int
		indexed []uint64 // a fill's stamp: each shard's Snapshot.indexed
	)
	if !req.NoCache {
		var ent *cacheEntry
		if slot, ent = e.cached(req.Demand, req.K, st); ent != nil {
			dst = append(dst, ent.cands...)
			e.fwd.Externalize(dst[at:])
			return QueryResponse{Candidates: dst, Cached: true}, nil
		}
		indexed = make([]uint64, len(e.shards))
	}
	// The merged candidates stay on this stack unless they outgrow
	// buf; what is kept is their best k, copied into dst (and into a
	// fill's entry).
	var buf [16]Candidate
	cands, cut := e.searchShards(buf[:0], req.Demand, req.K, indexed, st)
	best := bestFit(cands, req.K)
	if indexed != nil {
		e.cache.put(slot, newCacheEntry(req.Demand, req.K, best, cut, indexed))
	}
	dst = append(dst, best...)
	e.fwd.Externalize(dst[at:])
	return QueryResponse{Candidates: dst}, nil
}

// searchShards appends to dst the candidates needed to rank the k best
// fits dominating demand over every shard's snapshot — the one
// read-path ranking entry the uncached and cache-fill queries both go
// through — and returns the scan's final cutoff (index.Bound.Cut). The
// shards' indexes are scanned as one: a cursor each, always stepping
// the one whose next score is lowest, against one shared bound on the
// k smallest match scores — so the scan visits what one index over the
// whole population would, not k matches' worth per shard. The demand
// is prepared once, for every shard: their indexes are all built
// against the engine's CMax. The appended candidates still need
// bestFit: they arrive block by block, not in order, and a match found
// before the bound shrank past it stays in. A cache fill passes
// indexed, which receives each scanned snapshot's Snapshot.indexed
// (nil otherwise). The counts go to st.
func (e *Engine) searchShards(dst []Candidate, demand vector.Vec, k int, indexed []uint64, st *readStripe) ([]Candidate, float64) {
	// The usual shard counts and k keep all of this on the stack.
	var (
		snapBuf  [8]*Snapshot
		curBuf   [8]index.Cursor
		scoreBuf [8]float64
		entryBuf [8]int32
	)
	snaps, cursors := snapBuf[:0], curBuf[:0]
	var q index.Demand
	visited, at := 0, len(dst)
	for i, s := range e.shards {
		snap := s.snapshot()
		if indexed != nil {
			indexed[i] = snap.indexed
		}
		if i == 0 {
			q = snap.flat.Prepare(demand)
		}
		snaps, cursors = append(snaps, snap), append(cursors, snap.flat.Seek(q))
	}
	bound := index.NewBound(k, scoreBuf[:])
	for {
		low := -1
		for i := range cursors {
			if !cursors[i].Done() && (low < 0 || cursors[i].Next() < cursors[low].Next()) {
				low = i
			}
		}
		if low < 0 {
			break
		}
		entries, n := cursors[low].Step(entryBuf[:0], &bound)
		dst = snaps[low].resolve(dst, entries, demand, e.cfg.CMax)
		visited += n
	}
	st.n[rdSearches].Add(1)
	st.n[rdScanned].Add(uint64(visited))
	st.n[rdCands].Add(uint64(len(dst) - at))
	return dst, bound.Cut()
}

// consistentQuery routes the query through the PID-CAN protocol
// itself: one protocol leg against one placement, chosen round-robin
// (ForwardTable.QueryOne) — one querying node searching one overlay,
// as in the paper.
func (e *Engine) consistentQuery(req QueryRequest) (QueryResponse, error) {
	e.consistent.Add(1)
	resp, err := e.fwd.QueryOne(e.places, e.nextQuery.Add(1)-1, req)
	if err != nil {
		e.errors.Add(1)
	}
	return resp, err
}

// legCandidates converts one shard leg's protocol records into
// global candidates scored against the caller's demand.
func legCandidates(dst []Candidate, shard int, recs []proto.Record, demand, scale vector.Vec) []Candidate {
	for _, r := range recs {
		dst = append(dst, Candidate{
			Node:    Global(shard, r.Node),
			Avail:   r.Avail,
			Surplus: r.Avail.Surplus(demand, scale),
		})
	}
	return dst
}

// Update publishes a node's availability vector through its shard's
// write path and returns once it is applied. When announce is set
// the node also pushes an out-of-cycle state update into the index.
// Any id the node was ever known by (its original id or a former
// physical id, see Migrate) is accepted; an update racing a
// migration waits the move out and retries against the new shard.
func (e *Engine) Update(node GlobalID, avail vector.Vec, announce bool) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.writable(); err != nil {
		e.errors.Add(1)
		return err
	}
	if err := CheckDemand(avail, e.cfg.CMax); err != nil {
		e.errors.Add(1)
		return err
	}
	if err := e.fwd.Apply(e.places, node, func(p Placement, phys GlobalID) error {
		return p.Update(phys, avail, announce)
	}); err != nil {
		e.errors.Add(1)
		return err
	}
	e.updates.Add(1)
	return nil
}

// Join adds a node to the least-recently-joined shard (round-robin
// starting at shard 0, on a counter joins alone advance, so
// interleaved consistent queries cannot skew shard populations) and
// returns its global id. A non-nil avail is published and announced
// as the node's initial availability.
func (e *Engine) Join(avail vector.Vec) (GlobalID, error) {
	return e.join(-1, avail)
}

// JoinOn is Join targeted at one shard, bypassing the round-robin
// placement — the knob skewed deployments (and the rebalancing
// tests/loadgen) use to pile population onto specific shards.
func (e *Engine) JoinOn(shard int, avail vector.Vec) (GlobalID, error) {
	if shard < 0 || shard >= len(e.shards) {
		e.errors.Add(1)
		return 0, fmt.Errorf("%w: shard %d (join target)", ErrNoShard, shard)
	}
	return e.join(shard, avail)
}

// join implements Join (si < 0: round-robin pick) and JoinOn.
func (e *Engine) join(si int, avail vector.Vec) (GlobalID, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	if err := e.writable(); err != nil {
		e.errors.Add(1)
		return 0, err
	}
	if avail != nil {
		if err := CheckDemand(avail, e.cfg.CMax); err != nil {
			e.errors.Add(1)
			return 0, err
		}
		avail = avail.Clone()
	}
	if si < 0 {
		si = int((e.nextShard.Add(1) - 1) % uint64(len(e.places)))
	}
	id, err := e.places[si].Join(avail)
	if err != nil {
		e.errors.Add(1)
		return 0, err
	}
	e.joins.Add(1)
	return id, nil
}

// Leave removes a node; its records, indexes and any forwarding
// state die with it. Like Update, it accepts any id the node was
// ever known by and retries across a racing migration.
func (e *Engine) Leave(node GlobalID) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.writable(); err != nil {
		e.errors.Add(1)
		return err
	}
	if err := e.fwd.Apply(e.places, node, Placement.Leave); err != nil {
		e.errors.Add(1)
		return err
	}
	e.leaves.Add(1)
	return nil
}

// Nodes returns the global ids of every node visible in the current
// snapshots, ascending. Migrated nodes report their stable external
// id (the id Join returned), not the physical id of their current
// shard (ForwardTable.Nodes); a node caught mid-move by the per-shard
// snapshot reads may transiently be absent, like any write not yet
// reflected in a snapshot.
func (e *Engine) Nodes() []GlobalID {
	var out []GlobalID
	var ids []overlay.NodeID
	for _, s := range e.shards {
		ids = s.snapshot().flat.Nodes(ids[:0])
		for _, id := range ids {
			out = append(out, Global(s.idx, id))
		}
	}
	return e.fwd.Nodes(out)
}

// Snapshot returns shard i's current published snapshot with its
// Records view filled in (the caller pays for materialising it, once
// per index version), or ErrNoShard for an index the engine was not
// built with.
func (e *Engine) Snapshot(i int) (*Snapshot, error) {
	if i < 0 || i >= len(e.shards) {
		return nil, fmt.Errorf("%w: shard %d", ErrNoShard, i)
	}
	view := *e.shards[i].snapshot()
	view.Records = view.flat.Records()
	return &view, nil
}

// Referee answers a snapshot-path query the slow, obvious way: the
// paper's definition (proto.BestFit) over every shard's current
// records, read through Snapshot, with the ids Query reports (k <= 0
// means 1, as for Query). It is what the tests and replay hold Query
// against, never a serving path.
func (e *Engine) Referee(demand vector.Vec, k int) []Candidate {
	var fits []proto.Fit
	for i := range e.shards {
		snap, _ := e.Snapshot(i)
		fits = proto.BestFit(fits, snap.Records, snap.Taken, uint64(Global(i, 0)), demand, e.cfg.CMax, max(k, 1))
	}
	cands := make([]Candidate, len(fits))
	for i, f := range fits {
		cands[i] = Candidate{Node: GlobalID(f.ID), Avail: f.Avail, Surplus: f.Surplus}
	}
	return e.fwd.Externalize(cands)
}

// Stats assembles a point-in-time view of all counters.
func (e *Engine) Stats() Stats {
	reads := e.readCounts()
	st := Stats{
		Dims:          e.cfg.CMax.Dim(),
		CMax:          e.cfg.CMax,
		Queries:       reads[rdQueries],
		Consistent:    e.consistent.Load(),
		Updates:       e.updates.Load(),
		Joins:         e.joins.Load(),
		Leaves:        e.leaves.Load(),
		Migrations:    e.migrations.Load(),
		Rebalances:    e.rebalances.Load(),
		ForwardedIDs:  e.fwd.Count(),
		LastImbalance: math.Float64frombits(e.lastImbalance.Load()),
		Errors:        e.errors.Load(),

		Durable:          e.cfg.DataDir != "",
		WriteEpoch:       e.epoch.Load(),
		Checkpoints:      e.checkpoints.Load(),
		CheckpointSeq:    e.ckptSeq.Load(),
		WarmStart:        e.warmStart,
		LastRecoveryMS:   float64(e.recoveryNanos.Load()) / 1e6,
		RecoveredRecords: e.recoveredRecs.Load(),

		Role:           e.Role(),
		Epoch:          e.replEpoch.Load(),
		ReplFollowers:  int(e.replFollowers.Load()),
		ReplConnected:  e.replConnected.Load(),
		ReplLagRecords: e.replLag.Load(),
		ReplLagMS:      e.replLagMS.Load(),
		PrimaryAddr:    e.cfg.PrimaryAddr,
	}
	if f := e.wireStats.Load(); f != nil {
		ws := (*f)()
		st.WireConns = ws.Conns
		st.WireRequests = ws.Requests
		st.WireRejected = ws.Rejected
	}
	if p := e.capture.Load(); p != nil {
		cs := (*p).CaptureStats()
		st.CaptureRecords = cs.Records
		st.CaptureDropped = cs.Dropped
		st.CaptureBytes = cs.Bytes
	}
	st.CacheHits, st.CacheMisses, st.CacheEntries = reads[rdHits], reads[rdMisses], e.cache.entries()
	st.CacheStale, st.CacheRevalidated, st.CacheRescanned = reads[rdStale], reads[rdRevalidated], reads[rdRescanned]
	st.IndexSearches, st.IndexScannedRecords, st.IndexCandidates = reads[rdSearches], reads[rdScanned], reads[rdCands]
	for _, s := range e.shards {
		snap := s.snapshot()
		st.Shards = append(st.Shards, ShardStats{
			Shard:           s.idx,
			Nodes:           snap.Len(),
			SnapshotVersion: snap.Version,
			SimNow:          snap.Taken,
			QueueDepth:      len(s.ops),
			OpsApplied:      s.applied.Load(),
			Batches:         s.batches.Load(),
			WritesQueued:    s.queued.Load(),
			WritesParked:    s.parked.Load(),
			LogBytes:        s.logBytes.Load(),
		})
		st.TotalNodes += snap.Len()
		st.LogBytes += s.logBytes.Load()
		st.LogRecords += s.logRecords.Load()
		st.LogErrors += s.logErrors.Load()
		if s.log != nil {
			st.LogSyncs += s.log.Syncs()
		}
		st.IndexBuilds += s.idxBuilds.Load()
		st.IndexDeltaBuilds += s.idxDeltas.Load()
		st.IndexReuses += s.idxReuses.Load()
		st.IndexPatchedBlocks += s.idxPatched.Load()
		st.IndexRewrittenBlocks += s.idxRewritten.Load()
	}
	return st
}
