package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/serve/wal"
)

// ForwardTable keeps node migration between placements invisible to
// callers: a node's first (external) id stays routable for its whole
// life, and the physical ids it held along the way stay routable for a
// bounded grace window. Backends never reuse local node ids, so stale
// ids cannot collide with fresh joins. An Engine keeps one for nodes
// moved between its shards, a federation router one for nodes moved
// between primary processes; the placement operations that read and
// write it (Apply, Take, Migrate, QueryOne, Nodes — placement.go) are
// its methods, written once for both.
//
// Compaction (vs. the PR-3 table, which kept every id forever and
// rewrote all of them on each move): repoint is O(1) — it links only
// the vacated id and the external id to the new home — so former
// physical ids form chains that lookups path-compress on the fly,
// union-find style. Former physical ids are never handed out as
// identities (query responses and Nodes externalize to the stable
// external id); the only holders are snapshots, which age out within
// FlushInterval, and queries that read one and have not yet
// externalized it (readHold). (A cache entry cannot serve a vacated
// id: the move's take is a change on the source shard, which
// invalidates every entry naming the node.) Aliases therefore expire
// after a grace period comfortably above both and are reclaimed,
// bounding the table by live migrated nodes (two entries each:
// external id -> current, current -> external) instead of by lifetime
// migrations.
type ForwardTable struct {
	mu sync.RWMutex
	// next maps an id one step toward the node's current physical id
	// (the external id always in one hop; former physical ids may
	// chain until a lookup compresses them).
	next map[GlobalID]GlobalID
	// ext maps physical ids — current AND recently former, since a
	// concurrent reader's shard snapshot may still show the node at
	// its old home mid-move — back to the external id, so Nodes and
	// query responses report one stable identity however the
	// snapshots interleave with a migration.
	ext map[GlobalID]GlobalID
	// aliases lists, per external id, the former physical ids and
	// when each may be reclaimed. Expiries are monotone in creation
	// order, so the expired set is always a prefix.
	aliases map[GlobalID][]fwdAlias
	// inflight serializes migrations per node and lets writers wait
	// out a move instead of failing on the vacated source shard.
	inflight map[GlobalID]chan struct{}

	// grace is how long a former physical id stays routable after
	// the move away from it; nowFn is the clock (tests override it).
	grace     time.Duration
	nowFn     func() time.Time
	lastSweep time.Time

	// entries mirrors len(ext) (== 0 iff the whole table is empty).
	// The hot read paths load it lock-free and skip the table
	// entirely while no node has ever migrated, keeping snapshot
	// queries on an untouched engine free of shared-lock traffic.
	entries atomic.Int64

	// owner maps a physical id to the index of the placement holding
	// it in the owner's placement set (GlobalID.Shard for an engine,
	// the member tag for a federation router); stop, once closed,
	// aborts every wait on a migration in flight.
	owner func(GlobalID) int
	stop  <-chan struct{}
}

type fwdAlias struct {
	id      GlobalID
	expires time.Time
}

// readHold bounds how long a query holds a physical id it read — from
// a snapshot search or a consistent query's protocol leg — before the
// forwarding table externalizes it: a reader descheduled that long
// past its read is the slowest one the table still serves.
const readHold = 5 * time.Second

// NewForwardTable builds an empty table. grace bounds how long a
// vacated id stays routable after its last repoint: a former physical
// id can be observed via a stale snapshot or a query still holding
// one, so pick twice the longest time either can hold one (an Engine
// uses 2 x (FlushInterval + readHold)).
// owner and stop are described on the type.
func NewForwardTable(grace time.Duration, owner func(GlobalID) int, stop <-chan struct{}) *ForwardTable {
	return &ForwardTable{
		next:      map[GlobalID]GlobalID{},
		ext:       map[GlobalID]GlobalID{},
		aliases:   map[GlobalID][]fwdAlias{},
		inflight:  map[GlobalID]chan struct{}{},
		grace:     grace,
		lastSweep: time.Now(),
		owner:     owner,
		stop:      stop,
	}
}

func (t *ForwardTable) now() time.Time {
	if t.nowFn != nil {
		return t.nowFn()
	}
	return time.Now()
}

// chaseLocked follows the forwarding chain from id to the node's
// current physical id, returning the hop count.
func (t *ForwardTable) chaseLocked(id GlobalID) (GlobalID, int) {
	hops := 0
	for {
		n, ok := t.next[id]
		if !ok || n == id {
			return id, hops
		}
		id = n
		hops++
	}
}

// compressLocked is chaseLocked plus path compression: every id on
// the chain is relinked directly to the terminal, so the next lookup
// is one hop. Requires the write lock.
func (t *ForwardTable) compressLocked(id GlobalID) GlobalID {
	cur, hops := t.chaseLocked(id)
	for hops > 1 {
		n := t.next[id]
		t.next[id] = cur
		id = n
		hops--
	}
	return cur
}

func (t *ForwardTable) externalLocked(phys GlobalID) GlobalID {
	if x, ok := t.ext[phys]; ok {
		return x
	}
	return phys
}

// resolve maps any id a node was ever known by to its current
// physical id (identity for never-migrated nodes and for reclaimed
// aliases). Multi-hop chains are path-compressed on the way out.
func (t *ForwardTable) resolve(id GlobalID) GlobalID {
	if t.entries.Load() == 0 {
		return id
	}
	t.mu.RLock()
	cur, hops := t.chaseLocked(id)
	t.mu.RUnlock()
	if hops > 1 {
		t.mu.Lock()
		cur = t.compressLocked(id)
		t.mu.Unlock()
	}
	return cur
}

// Count returns the number of routable forwarded ids, sweeping out
// expired aliases first (Stats is the owner's natural maintenance
// tick alongside repoint itself).
func (t *ForwardTable) Count() int {
	if t.entries.Load() == 0 {
		return 0
	}
	t.maybeSweep(t.now())
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.next)
}

// begin claims the node for migration, waiting out a move already in
// flight. It returns the node's current physical id, its external
// id, and a release function ending the claim. Repointing the table
// is NOT release's job: it happens under the destination shard's
// combiner lock (via op.onApplied) before the snapshot carrying the
// new physical id publishes, so no reader can see an unmapped id.
// Closing the table's stop channel aborts the wait (ErrClosed).
func (t *ForwardTable) begin(id GlobalID) (phys, x GlobalID, release func(), err error) {
	for {
		t.mu.Lock()
		phys = t.compressLocked(id)
		x = t.externalLocked(phys)
		ch, busy := t.inflight[x]
		if !busy {
			done := make(chan struct{})
			t.inflight[x] = done
			t.mu.Unlock()
			release = func() {
				t.mu.Lock()
				delete(t.inflight, x)
				close(done)
				t.mu.Unlock()
			}
			return phys, x, release, nil
		}
		t.mu.Unlock()
		select {
		case <-ch:
		case <-t.stop:
			return 0, 0, nil, ErrClosed
		}
	}
}

// Repoint records a completed move of external id x from physical
// id old to physical id now. A placement calls it from its
// CompleteMigration, under the mover's inflight claim and before any
// reader can observe the new id (an in-process shard: under the
// destination shard's combiner lock, between applying the join and
// publishing the snapshot) — and recovery calls it again,
// idempotently, when it replays the join from the op-log.
func (t *ForwardTable) Repoint(x, old, now GlobalID) {
	at := t.now()
	t.mu.Lock()
	t.repointLocked(x, old, now, at)
	t.mu.Unlock()
}

// repointLocked links the move in O(1): the external id and the
// vacated physical id point at the new home; older aliases keep
// their one-step links and compress lazily on lookup. The vacated id
// becomes a reclaimable alias, and the node's already-expired
// aliases are pruned on the way through.
func (t *ForwardTable) repointLocked(x, old, now GlobalID, at time.Time) {
	if old != x {
		known := false
		for _, a := range t.aliases[x] {
			if a.id == old {
				known = true
				break
			}
		}
		if !known {
			t.aliases[x] = append(t.aliases[x], fwdAlias{id: old, expires: at.Add(t.grace)})
		}
		t.next[old] = now
		// The old physical id keeps an ext entry for its grace
		// window: a snapshot read mid-move may still show the node
		// there, and must map it to the same external identity as
		// the new home.
		t.ext[old] = x
	}
	t.next[x] = now
	t.ext[now] = x
	t.pruneLocked(x, at)
	t.entries.Store(int64(len(t.ext)))
}

// pruneLocked reclaims x's expired aliases (always a prefix of the
// list, since expiries are monotone in creation order — so a pruned
// alias can never be the target of a surviving older link).
func (t *ForwardTable) pruneLocked(x GlobalID, at time.Time) {
	as := t.aliases[x]
	i := 0
	for i < len(as) && !as[i].expires.After(at) {
		delete(t.next, as[i].id)
		delete(t.ext, as[i].id)
		i++
	}
	if i == 0 {
		return
	}
	if i == len(as) {
		delete(t.aliases, x)
		return
	}
	t.aliases[x] = append(as[:0:0], as[i:]...)
}

// maybeSweep prunes every node's expired aliases, at most once per
// grace interval.
func (t *ForwardTable) maybeSweep(at time.Time) {
	t.mu.RLock()
	due := len(t.aliases) > 0 && at.Sub(t.lastSweep) >= t.grace
	t.mu.RUnlock()
	if !due {
		return
	}
	t.mu.Lock()
	if at.Sub(t.lastSweep) >= t.grace {
		for x := range t.aliases {
			t.pruneLocked(x, at)
		}
		t.lastSweep = at
		t.entries.Store(int64(len(t.ext)))
	}
	t.mu.Unlock()
}

// waitSettled is the writer-side retry gate: after a backend
// rejected an op for physical id phys (resolved from id), it reports
// whether retrying is worthwhile — a migration in flight was waited
// out, or the id already resolves elsewhere. The stop channel aborts
// the wait.
func (t *ForwardTable) waitSettled(id, phys GlobalID) bool {
	t.mu.RLock()
	cur, _ := t.chaseLocked(id)
	ch, busy := t.inflight[t.externalLocked(cur)]
	t.mu.RUnlock()
	if busy {
		select {
		case <-ch:
			return true
		case <-t.stop:
			return false
		}
	}
	return cur != phys
}

// Forget drops all forwarding state of the node currently at
// physical id phys (a placement calls it once the node has left for
// good), returning every id that belonged to the node — recovery
// records them so a replayed migration take of a node that later left
// is not mistaken for an orphaned mid-flight move. Idempotent:
// recovery replays it for every logged leave.
func (t *ForwardTable) Forget(phys GlobalID) []GlobalID {
	if t.entries.Load() == 0 {
		return nil // nothing ever migrated: no state to clean
	}
	t.mu.Lock()
	x := t.externalLocked(phys)
	cur, _ := t.chaseLocked(x)
	removed := make([]GlobalID, 0, len(t.aliases[x])+3)
	for _, a := range t.aliases[x] {
		removed = append(removed, a.id)
		delete(t.next, a.id)
		delete(t.ext, a.id)
	}
	removed = append(removed, x, cur, phys)
	delete(t.aliases, x)
	delete(t.next, x)
	delete(t.ext, x)
	delete(t.next, cur)
	delete(t.ext, cur)
	delete(t.ext, phys)
	t.entries.Store(int64(len(t.ext)))
	t.mu.Unlock()
	return removed
}

// hasRoute reports whether the table forwards phys anywhere — i.e. a
// migration join away from phys is known.
func (t *ForwardTable) hasRoute(phys GlobalID) bool {
	t.mu.RLock()
	_, ok := t.next[phys]
	t.mu.RUnlock()
	return ok
}

// externalOf maps a physical id to its external id (identity when
// unknown).
func (t *ForwardTable) externalOf(phys GlobalID) GlobalID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.externalLocked(phys)
}

// export flattens the table for a checkpoint. Chains are exported
// as-is (recovery restores and keeps compressing lazily); alias
// expiry clocks restart on recovery, which only ever errs longer.
func (t *ForwardTable) export() wal.ForwardState {
	t.maybeSweep(t.now())
	t.mu.RLock()
	defer t.mu.RUnlock()
	fs := wal.ForwardState{
		Next:    make(map[uint64]uint64, len(t.next)),
		Ext:     make(map[uint64]uint64, len(t.ext)),
		Aliases: make(map[uint64][]uint64, len(t.aliases)),
	}
	for k, v := range t.next {
		fs.Next[uint64(k)] = uint64(v)
	}
	for k, v := range t.ext {
		fs.Ext[uint64(k)] = uint64(v)
	}
	for x, as := range t.aliases {
		ids := make([]uint64, len(as))
		for i, a := range as {
			ids[i] = uint64(a.id)
		}
		fs.Aliases[uint64(x)] = ids
	}
	return fs
}

// restore installs a checkpointed table, stamping every alias a
// fresh grace window.
func (t *ForwardTable) restore(fs wal.ForwardState) {
	at := t.now()
	t.mu.Lock()
	for k, v := range fs.Next {
		t.next[GlobalID(k)] = GlobalID(v)
	}
	for k, v := range fs.Ext {
		t.ext[GlobalID(k)] = GlobalID(v)
	}
	for x, ids := range fs.Aliases {
		as := make([]fwdAlias, len(ids))
		for i, id := range ids {
			as[i] = fwdAlias{id: GlobalID(id), expires: at.Add(t.grace)}
		}
		t.aliases[GlobalID(x)] = as
	}
	t.entries.Store(int64(len(t.ext)))
	t.mu.Unlock()
}

// Migrate moves a node to shard `to` through both shards' write
// queues (ForwardTable.Migrate has the contract: stable external
// identity, roll-back, the applied-but-degraded ErrWAL outcome). The
// availability is re-announced on the destination shard's index.
// Migrating a node to its own shard is a no-op.
func (e *Engine) Migrate(node GlobalID, to int) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.writable(); err != nil {
		e.errors.Add(1)
		return err
	}
	// The checkpoint barrier: a checkpoint pass must not rotate the
	// shard logs between this migration's take and join, or a crash
	// could leave the take durable in a pruned segment with the join
	// nowhere — an acknowledged node silently lost. Holding the read
	// side for the take+join span means every migration is either
	// entirely inside one checkpoint's coverage or entirely after it
	// (where a lost join is detected and rolled back at recovery). It
	// is taken before the forwarding claim, by every migration;
	// checkpoints never touch claims, so migMu -> claim is the one
	// order the two are ever held in.
	e.migMu.RLock()
	defer e.migMu.RUnlock()
	moved, err := e.fwd.Migrate(e.places, node, to, false, nil)
	if moved {
		e.migrations.Add(1)
	}
	if err != nil {
		e.errors.Add(1)
	}
	return err
}

// RebalanceResult describes one rebalance pass.
type RebalanceResult struct {
	// Imbalance is the max/min shard-population ratio observed at
	// the start of the pass. Empty shards count as population 1, so
	// the ratio stays finite (JSON-encodable) while still far past
	// any sane threshold.
	Imbalance float64 `json:"imbalance"`
	// From and To are the most- and least-populated shards at the
	// start of the pass — the first pair served. The pass re-samples
	// after every move, so later moves may serve other pairs.
	From int `json:"from"`
	To   int `json:"to"`
	// Moved counts the nodes this pass migrated (across however
	// many shard pairs the re-sampling visited).
	Moved int `json:"moved"`
}

// A rebalance pass migrates nodes while the max/min shard-population
// ratio exceeds rebalanceThreshold, at most rebalanceMaxMoves of them,
// so rebalancing never starves serving.
const (
	rebalanceThreshold = 1.25
	rebalanceMaxMoves  = 8
)

// Rebalance runs one adaptive rebalance pass: it samples per-shard
// populations from the published snapshots and, while the max/min
// ratio exceeds rebalanceThreshold, migrates nodes (newest
// joiners first — the cheapest to move and the likeliest cause of
// targeted-join skew) from the most- to the least-populated shard,
// re-sampling after every move so successive moves spread across
// whichever pair is most skewed. rebalanceMaxMoves caps the pass.
// The background rebalancer (Config.RebalanceInterval) calls this on
// its cadence; it is also safe to trigger manually (POST /rebalance
// over HTTP). An error is returned only when the pass could not move
// anything it should have.
func (e *Engine) Rebalance() (RebalanceResult, error) {
	if e.closed.Load() {
		return RebalanceResult{}, ErrClosed
	}
	if err := e.writable(); err != nil {
		return RebalanceResult{}, err
	}
	// One pass at a time: a manual trigger racing the background loop
	// must not double the move budget or see each other's half-moved
	// populations and oscillate.
	e.rebalanceMu.Lock()
	defer e.rebalanceMu.Unlock()
	e.rebalances.Add(1)
	sample := func() (maxI, minI, gap int, imb float64) {
		pops := make([]int, len(e.shards))
		for i, s := range e.shards {
			pops[i] = s.snapshot().Len()
			if pops[i] > pops[maxI] {
				maxI = i
			}
			if pops[i] < pops[minI] {
				minI = i
			}
		}
		imb = 1.0
		if pops[maxI] > 0 {
			low := pops[minI]
			if low < 1 {
				low = 1 // empty shard: keep the ratio finite for JSON
			}
			imb = float64(pops[maxI]) / float64(low)
		}
		return maxI, minI, pops[maxI] - pops[minI], imb
	}
	maxI, minI, gap, imb := sample()
	e.lastImbalance.Store(math.Float64bits(imb))
	res := RebalanceResult{Imbalance: imb, From: maxI, To: minI}
	if len(e.shards) < 2 {
		return res, nil
	}
	var firstErr error
	// gap > 1: moving one node off a one-node lead only swaps which
	// shard is largest — stop there even when small populations keep
	// the ratio above the threshold, or the pass would ping-pong the
	// same node until the move cap burned out.
	for res.Moved < rebalanceMaxMoves && imb > rebalanceThreshold && gap > 1 {
		ids := e.shards[maxI].snapshot().flat.Nodes(nil)
		moved := false
		for i := len(ids) - 1; i >= 0; i-- {
			if err := e.Migrate(Global(maxI, ids[i]), minI); err != nil {
				// The node may have left or moved concurrently; try
				// the next one.
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			moved = true
			break
		}
		if !moved {
			break
		}
		res.Moved++
		maxI, minI, gap, imb = sample()
	}
	if res.Moved == 0 && imb > rebalanceThreshold && gap > 1 && firstErr != nil {
		return res, firstErr
	}
	return res, nil
}
