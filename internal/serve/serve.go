// Package serve turns the deterministic, single-goroutine PID-CAN
// cluster (the embedding API of the root package) into a concurrent,
// shard-parallel query service.
//
// The design keeps the paper's determinism intact where it matters:
// every Cluster has one writer at a time, whoever holds its shard's
// combiner lock — a caller applying its own write (and the writes
// queued behind it), or the engine's idle tick, which also advances
// the shard-local simulation clock. The engine runs no goroutine per
// shard. Concurrency lives strictly above the clusters:
//
//   - Each shard publishes an immutable Snapshot through an atomic
//     pointer, so best-fit multi-dimensional range queries run
//     lock-free on the read path and never touch a cluster or a mutex.
//     What a snapshot stores is one version of the shard's
//     copy-on-write block index (internal/serve/index) and nothing
//     else: a publication re-reads the batch's dirty nodes from the
//     backend and rewrites only the index blocks they leave or enter,
//     so its cost follows the batch, not the population. Every engine
//     reader (search, Nodes, Stats, AvailSummary, Rebalance) reads the
//     index; a record array exists only as the view Engine.Snapshot
//     materialises for its caller, on the caller's goroutine.
//
//   - Availability updates, announcements, joins and leaves are
//     applied by flat combining: a writer that finds its shard's lock
//     free and nothing queued applies its own write, with no hop to
//     another goroutine; writers that find it taken queue behind it,
//     and the lock's next holder applies the queue in batches. A
//     queued writer waits on its own core: it polls its buffered reply
//     and takes the lock itself whenever it comes free, and parks only
//     after a bounded spin or while the holder waits on an fsync —
//     a parked writer's wake-up costs more than most rounds. A holder
//     that leaves ops queued when it unlocks kicks a parked writer,
//     which serves them itself. A write is
//     acknowledged after apply + op-log + snapshot publication and
//     advances no simulated time.
//
//   - Clock contract. A shard's simulated clock follows wall time
//     1:1: one simulated microsecond per wall microsecond since the
//     shard started, on top of Warmup. It is advanced in one
//     place only, the engine's idle tick (every FlushInterval, one
//     shard after another), by target - Backend.Now() when positive, in slices of at most
//     StepQuantum; a slice that finds ops queued or a caller waiting
//     for the combiner lock ends the tick's catch-up and the next tick
//     steps what is still owed. Nothing
//     else calls Backend.Step — not the write ack path, not recovery
//     replay, not follower apply — so the protocol's state-update and
//     index-diffusion machinery (the paper's periods are real-time
//     periods) costs the same whatever the traffic, and consistent
//     queries and announces see an overlay at most one FlushInterval
//     behind real time. A protocol query that runs the backend ahead
//     of the target makes the next ticks step nothing. Snapshot.Taken
//     and ShardStats.SimNow read Backend.Now(). Snapshot records carry
//     no clock: a snapshot reads every alive node's availability from
//     the backend, so none of them is ever stale, and the protocol's
//     own state-record TTL (core.Config.StateTTL) governs only the
//     consistent path.
//
//   - Recent queries are cached per exact (demand, k), one slot each
//     in a direct-mapped table. An entry holds the answer, its cut
//     (the fill's final cutoff) and, per shard, which index it was
//     read from. It answers outright while every shard still
//     publishes that index. A shard that published a new one is
//     rechecked up to the cut: the entry holds when that shard still
//     has every cached candidate of its own, row for row, and no
//     other match that ranks ahead of the last one (none at all for
//     an entry short of k). So a hit is the uncached answer bit for
//     bit. Stats counts the hits a recheck kept (cache_revalidated),
//     the rechecks that failed (cache_stale, misses) and the records
//     rechecks visited (cache_rescanned).
//
//   - Consistent queries route through the paper's three-phase
//     protocol: one querying node searches one overlay. Each runs as
//     one protocol query on one shard's write path, the shards taken
//     round-robin; its answer is that overlay's best fit.
//
//   - Nodes migrate between shards (Engine.Migrate): the node Leaves
//     its source shard and re-Joins the destination through both
//     shards' write paths, carrying its availability. A forwarding table
//     keeps every id the node was ever known by routable, so callers
//     holding the original (external) id never notice the move. An
//     adaptive rebalancer (RebalanceInterval) samples per-shard
//     populations and migrates nodes from the most- to the
//     least-loaded shard when the skew exceeds rebalanceThreshold,
//     capped per pass so rebalancing never starves serving.
//
//   - With a DataDir the engine is durable (internal/serve/wal):
//     every applied mutation becomes a typed, CRC-framed op-log
//     record before its writer is acknowledged (fsync batched with
//     the write batches), checkpoints serialize each shard's logical
//     state plus the forwarding table and round-robin counters, and
//     New warm-restarts from the latest checkpoint + log tail,
//     replayed through the exact same batch-application path live
//     writes use. Reads never touch the log.
//
// The Engine is wired to real clusters by pidcan.NewEngine; the HTTP
// front-end lives in http.go (served by cmd/pidcan-serve) and the
// open-loop load generator in cmd/pidcan-loadgen.
package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"pidcan/internal/core"
	"pidcan/internal/netmodel"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/task"
	"pidcan/internal/vector"
)

// Errors returned by the engine.
var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("serve: engine closed")
	// ErrBadDemand is returned for demand vectors of the wrong
	// dimensionality or with non-finite/negative components.
	ErrBadDemand = errors.New("serve: invalid demand vector")
	// ErrNoShard is returned for operations addressing a shard index
	// the engine was not built with.
	ErrNoShard = errors.New("serve: no such shard")
	// ErrScatterTimeout is returned when a federation router's
	// whole-gather deadline (fed.Config.ScatterTimeout) expires before
	// any member leg answers.
	ErrScatterTimeout = errors.New("serve: scatter deadline exceeded")
	// ErrNoNodes is returned for a consistent query against a shard
	// with no alive nodes to act as the querying agent.
	ErrNoNodes = errors.New("serve: shard has no alive nodes")
	// ErrLastNode is returned by Migrate for a shard's last node: a
	// CAN overlay cannot lose its last owner, so migration never
	// drains a shard below one node.
	ErrLastNode = errors.New("serve: cannot migrate a shard's last node")
	// ErrNotDurable is returned by Checkpoint on an engine built
	// without a DataDir: there is no op-log to checkpoint.
	ErrNotDurable = errors.New("serve: engine has no data dir")
	// ErrRecovery wraps any failure to recover a DataDir's checkpoint
	// and op-log at startup (incompatible configuration, divergent
	// replay, unreadable files). New fails rather than serve from a
	// state it cannot prove matches the log.
	ErrRecovery = errors.New("serve: recovery failed")
	// ErrReadOnly is returned for writes on a replication follower:
	// followers apply their primary's op-log stream and serve reads;
	// writes belong on the primary (the error message names its
	// address when configured). Promotion lifts it.
	ErrReadOnly = errors.New("serve: read-only replication follower")
	// ErrFenced is returned for writes on a primary that has learned
	// of a newer replication epoch (a follower it once fed was
	// promoted): the deposed primary seals itself rather than accept
	// writes the new timeline will never contain.
	ErrFenced = errors.New("serve: fenced by a newer primary epoch")
	// ErrNotFollower is returned by Promote on an engine that is not
	// a replication follower.
	ErrNotFollower = errors.New("serve: engine is not a replication follower")
	// ErrWAL marks a write that was applied in memory but whose
	// op-log append or fsync failed: the write is live until the next
	// restart but is NOT durable, and the caller is told so instead
	// of receiving a silent acknowledgment. Stats.LogErrors counts
	// these.
	ErrWAL = errors.New("serve: op-log write failed (applied in memory, not durable)")
	// ErrNotReady is answered while a front-end has no engine mounted
	// yet: a follower still bootstrapping its mirror.
	ErrNotReady = errors.New("serve: engine not ready (follower still bootstrapping)")
	// ErrBadRequest is answered for a request that does not decode: a
	// malformed JSON body or wire payload, an unknown field, an
	// oversized body.
	ErrBadRequest = errors.New("serve: bad request")
)

// Rejection codes: the error codes of the wire protocol's error frames
// (internal/serve/wire). The values are wire format; do not renumber.
const (
	CodeBadRequest     uint16 = 1 // malformed request or bad demand vector
	CodeNoShard        uint16 = 2 // the op addressed a placement the service lacks
	CodeRejected       uint16 = 3 // refused for a reason with no row (e.g. unknown node)
	CodeClosed         uint16 = 4
	CodeReadOnly       uint16 = 5
	CodeFenced         uint16 = 6 // also a write frame whose epoch is not the engine's
	CodeWAL            uint16 = 7
	CodeScatterTimeout uint16 = 8
	CodeNotReady       uint16 = 9
)

// Rejection is one row of the rejection table: how the HTTP edge and
// the wire edge both answer an error that wraps Err.
type Rejection struct {
	Err    error
	Code   uint16 // wire error code
	Status int    // HTTP status
	// Retry: the answer carries the RetryAfter hint (HTTP: the
	// Retry-After header and "retry_after_ms"; wire: Error.RetryAfter).
	Retry bool
	// Primary: the answer names the service's PrimaryAddr, where the
	// client re-points its writes.
	Primary bool
}

// RetryAfter is the retry hint of the rows that carry one: long enough
// for a fail-over promotion to complete, short enough that clients
// re-resolve the primary promptly.
const RetryAfter = time.Second

// rejections is the one table between serve's sentinels and both
// edges' answers. An error is answered by the first row whose sentinel
// it wraps (unmapped when none); a code stands for its first row's
// sentinel, so CodeBadRequest comes back as ErrBadDemand whichever
// bad-input sentinel a member returned.
var rejections = []Rejection{
	{ErrClosed, CodeClosed, http.StatusServiceUnavailable, true, false},
	{ErrReadOnly, CodeReadOnly, http.StatusServiceUnavailable, true, true},
	{ErrFenced, CodeFenced, http.StatusServiceUnavailable, true, false},
	{ErrWAL, CodeWAL, http.StatusInternalServerError, false, false},
	{ErrBadDemand, CodeBadRequest, http.StatusBadRequest, false, false},
	{ErrNotDurable, CodeBadRequest, http.StatusBadRequest, false, false},
	{ErrBadRequest, CodeBadRequest, http.StatusBadRequest, false, false},
	{ErrNoShard, CodeNoShard, http.StatusNotFound, false, false},
	{ErrScatterTimeout, CodeScatterTimeout, http.StatusGatewayTimeout, false, false},
	{ErrNotReady, CodeNotReady, http.StatusServiceUnavailable, true, false},
}

// unmapped answers an error that wraps no row's sentinel.
var unmapped = Rejection{Code: CodeRejected, Status: http.StatusConflict}

// Rejections returns a copy of the rejection table.
func Rejections() []Rejection { return append([]Rejection(nil), rejections...) }

// RejectionOf returns the row err is answered by.
func RejectionOf(err error) Rejection {
	for _, row := range rejections {
		if errors.Is(err, row.Err) {
			return row
		}
	}
	return unmapped
}

// SentinelOf returns the sentinel a rejection code stands for, or nil
// for a code with none (CodeRejected, unknown codes).
func SentinelOf(code uint16) error {
	for _, row := range rejections {
		if row.Code == code {
			return row.Err
		}
	}
	return nil
}

// CheckDemand returns an error wrapping ErrBadDemand unless demand has
// cmax's dimensionality and only finite, non-negative components.
func CheckDemand(demand, cmax vector.Vec) error {
	if demand.Dim() != cmax.Dim() || !demand.IsFinite() || !demand.IsNonNegative() {
		return fmt.Errorf("%w: %v (want %d non-negative finite dims)", ErrBadDemand, demand, cmax.Dim())
	}
	return nil
}

// GlobalID addresses a node across shards: the shard index in the
// high 32 bits, the shard-local overlay.NodeID in the low 32.
type GlobalID uint64

// Global packs a shard index and a shard-local node id.
func Global(shard int, local overlay.NodeID) GlobalID {
	return GlobalID(uint64(uint32(shard))<<32 | uint64(uint32(local)))
}

// Shard returns the shard index of the id.
func (g GlobalID) Shard() int { return int(uint32(g >> 32)) }

// Local returns the shard-local node id.
func (g GlobalID) Local() overlay.NodeID { return overlay.NodeID(uint32(g)) }

func (g GlobalID) String() string { return fmt.Sprintf("%d/%d", g.Shard(), g.Local()) }

// Backend is the shard-local cluster a shard owns. It is implemented
// by *pidcan.Cluster (and by fakes in tests). A Backend takes one
// caller at a time: after New hands it to its shard, it is touched
// only under the shard's combiner lock.
type Backend interface {
	// Nodes returns the alive node ids in ascending order, in a slice
	// the caller owns and may modify.
	Nodes() []overlay.NodeID
	// Alive reports whether id is an alive node, without listing the
	// population: the shard's one record of which nodes it holds.
	Alive(id overlay.NodeID) bool
	// Availability returns a copy of the node's current availability.
	Availability(id overlay.NodeID) vector.Vec
	// SetAvailability publishes a node's availability vector.
	SetAvailability(id overlay.NodeID, avail vector.Vec) error
	// Announce pushes the node's availability into the index now.
	Announce(id overlay.NodeID) error
	// Join adds a node and returns its shard-local id.
	Join() (overlay.NodeID, error)
	// Leave removes a node.
	Leave(id overlay.NodeID) error
	// Query runs the protocol's probabilistic best-fit range query.
	Query(from overlay.NodeID, demand vector.Vec, k int) ([]proto.Record, int, error)
	// Step advances the shard-local simulation clock by d > 0.
	Step(d sim.Time)
	// Now returns the shard-local simulation clock.
	Now() sim.Time
	// Size returns the alive population.
	Size() int
	// SeedNextID advances the local id sequence (and whatever per-node
	// bookkeeping a live join sequence would have grown, e.g. the
	// latency model) to next without materializing the dead nodes in
	// between — what keeps checkpoint restore O(alive nodes).
	SeedNextID(next overlay.NodeID) error
}

// BackendFactory builds the backend for one shard. cfg is the
// resolved (defaults applied) engine configuration. New calls it once
// per shard, in shard order, from one goroutine and never twice at
// once; the backend it returns is warmed up and snapshotted on another
// goroutine, concurrently with the next call, so it must share no
// unsynchronized state with the other shards' backends.
type BackendFactory func(shard int, cfg Config) (Backend, error)

// Config parameterizes an Engine. Zero fields take the documented
// defaults.
type Config struct {
	// Shards is the number of independent cluster shards (default 1).
	Shards int
	// NodesPerShard is the initial population per shard (default 64).
	NodesPerShard int
	// Seed drives all randomness; shard i derives its own stream.
	Seed uint64
	// CMax scales resource vectors; its length sets the
	// dimensionality (default: the paper's Table-I cmax).
	CMax vector.Vec
	// Core tunes the PID-CAN protocol (default: paper's setting).
	Core core.Config
	// Net is the LAN/WAN latency model (default: Table I).
	Net netmodel.Config

	// QueueDepth bounds each shard's write queue, the writes waiting
	// while another holds the shard's combiner lock (default 1024).
	QueueDepth int
	// MaxBatch bounds how many queued ops one batch applies
	// (default 256).
	MaxBatch int
	// FlushInterval is the cadence of the idle tick, the one place a
	// shard's simulated clock moves: each tick steps the simulation up
	// to elapsed wall time and republishes the snapshot under the new
	// clock, writes or not (default 100ms of wall time).
	FlushInterval time.Duration
	// StepQuantum bounds one catch-up slice of an idle tick: a tick
	// owing more simulated time steps it in slices this long, looking
	// at the write queue in between (default 1s of simulated time).
	StepQuantum sim.Time
	// Warmup is simulated time each shard runs before serving, so
	// state updates and index diffusion settle (default 0).
	Warmup sim.Time
	// DataDir, when non-empty, makes the engine durable: every
	// applied mutation is appended to a per-shard op-log under this
	// directory before it is acknowledged, checkpoints serialize the
	// engine's logical state, and New warm-restarts from the latest
	// checkpoint plus the log tail (replayed through the same batch
	// application path live writes use). Empty (the default) keeps
	// the engine purely in-memory. The directory must not be shared
	// between live engines, and recovery requires the same Shards,
	// NodesPerShard, Seed and CMax dimensionality the data was
	// written under.
	DataDir string
	// CheckpointEvery, when positive, runs a background checkpoint on
	// that cadence, bounding both log growth and recovery time. 0
	// (the default) checkpoints only on Close and on explicit
	// Checkpoint calls (POST /checkpoint over HTTP). Ignored without
	// DataDir.
	CheckpointEvery time.Duration
	// Follower starts the engine as a read-only replication
	// follower: writes fail with ErrReadOnly while the replication
	// client (internal/serve/repl) applies the primary's op-log
	// stream through the same batch path, and the DataDir mirrors
	// the primary's segments and checkpoints. Requires DataDir.
	// Promotion (Engine.Promote / POST /promote) lifts the flag,
	// seals a new epoch and starts the deferred background loops.
	Follower bool
	// PrimaryAddr is the replication address of this follower's
	// primary, reported in ErrReadOnly errors and Stats so clients
	// can redirect writes. Informational only.
	PrimaryAddr string
	// FsyncEvery is the durability/throughput knob of the op-log: the
	// log is fsynced once per FsyncEvery applied write batches
	// (default 1: every batch is durable before its writers are
	// acknowledged — note a batch is up to MaxBatch drained ops, so
	// bursts already amortize the fsync). Negative disables fsync
	// entirely: appends reach the OS on the batch cadence but a host
	// crash may lose the recent tail (a process crash does not).
	FsyncEvery int

	// RebalanceInterval, when positive, runs the adaptive shard
	// rebalancer: every interval the engine samples per-shard
	// populations and migrates nodes from the most- to the
	// least-loaded shard while the max/min population ratio exceeds
	// 1.25, at most 8 nodes a pass (rebalanceThreshold,
	// rebalanceMaxMoves). 0 (the default) disables the background
	// rebalancer; Engine.Rebalance still runs single passes on
	// demand.
	RebalanceInterval time.Duration

	// CacheAdaptEvery is ignored: the query cache has no grid for a
	// controller to steer. It stays only for the repo benchmark, which
	// sets it.
	CacheAdaptEvery int
}

// withDefaults returns cfg with zero fields resolved.
func (c Config) withDefaults() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 {
		return c, fmt.Errorf("serve: Shards %d < 1", c.Shards)
	}
	if c.NodesPerShard == 0 {
		c.NodesPerShard = 64
	}
	if c.NodesPerShard < 2 {
		return c, fmt.Errorf("serve: NodesPerShard %d < 2", c.NodesPerShard)
	}
	if c.CMax == nil {
		c.CMax = task.CMax()
	}
	if !c.CMax.IsNonNegative() || c.CMax.Sum() == 0 {
		return c, fmt.Errorf("serve: invalid CMax %v", c.CMax)
	}
	if c.Core.L == 0 {
		c.Core = core.Default()
	}
	if err := c.Core.Validate(); err != nil {
		return c, err
	}
	if c.Net.LANSize == 0 {
		c.Net = netmodel.Default()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.StepQuantum <= 0 {
		c.StepQuantum = sim.Second
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	if c.FsyncEvery == 0 {
		c.FsyncEvery = 1
	}
	if c.Follower && c.DataDir == "" {
		return c, fmt.Errorf("serve: Follower requires DataDir (the op-log mirror)")
	}
	if c.RebalanceInterval < 0 {
		c.RebalanceInterval = 0
	}
	return c, nil
}
