package serve

import (
	"errors"
	"fmt"
	"slices"

	"pidcan/internal/vector"
)

// PlacementLeg is one placement's answer to a consistent query: its
// candidates, already scored against the request demand and named in
// the caller's id namespace, plus the protocol's hop count. Queried
// counts the shards that answered inside the placement (1 for an
// in-process shard; a remote primary reports its own count).
type PlacementLeg struct {
	Cands   []Candidate
	Hops    int
	Queried int
}

// Placement is "a set of nodes I can query, update, join, leave and
// migrate against": an in-process shard (shardPlacement) or a whole
// primary process reached over the wire protocol (fed.RemotePrimary).
// Shard count and primary count are the same axis, and everything
// that is about *which* placement holds a node is written once, over
// a []Placement, as methods of the set's ForwardTable below: the
// id-resolution and migration-chase loop of a write (Apply), the
// out-take (Take), migration with its roll-back and forget rules
// (Migrate), the consistent query (QueryOne) and the node listing's
// identity mapping (Nodes). serve.Engine and fed.Router call those and
// add only what differs between them: their pre-checks (role, demand
// shape, the checkpoint barrier), their counters and their snapshot
// read (the engine's merged index scan, the router's member gather).
//
// What an implementation owns: how an operation reaches its nodes
// (a shard's write queue; a pipelined connection with address
// rotation, fencing and retries), the translation of its failures
// onto the package's sentinels, and the forwarding-table consequences
// of its own operations — Leave forgets the node once the removal is
// applied, CompleteMigration repoints it before any reader can see
// the new id. Ids crossing the interface are physical ids in the
// owner's namespace, already resolved through its table.
type Placement interface {
	// QueryLeg runs one consistent protocol query against this
	// placement.
	QueryLeg(req QueryRequest) (PlacementLeg, error)

	// Update republishes a node's availability.
	Update(node GlobalID, avail vector.Vec, announce bool) error

	// Join adds a node and returns its id in the owner's namespace.
	Join(avail vector.Vec) (GlobalID, error)

	// Leave removes a node permanently, dropping the owner's
	// forwarding state for it once the removal is applied.
	Leave(node GlobalID) error

	// Take removes a node mid-migration and returns its last
	// published availability so the caller can re-join it
	// elsewhere. out marks a take whose re-join happens outside
	// this placement's process (a cross-process migration): the
	// removal is then logged as a plain leave, so a local crash
	// recovery cannot resurrect a node that now lives elsewhere.
	// An error wrapping ErrWAL means applied-but-not-durable; the
	// returned availability is still valid.
	Take(node GlobalID, out bool) (vector.Vec, error)

	// CompleteMigration re-joins a taken node here and repoints the
	// owner's forwarding state from the node's previous physical id
	// (old) to its new home, keeping the stable external id (ext)
	// routable. It returns the node's new physical id. An error
	// wrapping ErrWAL means the join APPLIED (the node lives here,
	// the repoint is installed) and only its durability is degraded;
	// an implementation that cannot stand behind that — a join
	// acknowledged across a process boundary — reports a plain
	// failure instead, so the caller rolls back.
	CompleteMigration(avail vector.Vec, ext, old GlobalID) (GlobalID, error)
}

// migrateRetries bounds how often a write chases a node across
// migrations before giving up. Each retry follows the freshest
// forwarding state, so exhausting it takes as many back-to-back
// migrations of the same node interleaved exactly with the write.
const migrateRetries = 8

// stopped reports whether the owner is shutting down. After a failure
// it decides between the transient state the teardown left behind and
// the honest outcome, ErrClosed.
func (t *ForwardTable) stopped() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// place returns the placement holding physical id phys (node is the
// id the caller asked about, for the error).
func (t *ForwardTable) place(places []Placement, phys, node GlobalID) (Placement, error) {
	i := t.owner(phys)
	if i < 0 || i >= len(places) {
		return nil, fmt.Errorf("%w: placement %d (node %v)", ErrNoShard, i, node)
	}
	return places[i], nil
}

// Apply is the migration-chase protocol of a write (Update, Leave):
// resolve node — any id it was ever known by — through the table,
// run do against the placement holding it, and on a rejection wait
// out a racing migration and retry against the node's new home.
func (t *ForwardTable) Apply(places []Placement, node GlobalID, do func(p Placement, phys GlobalID) error) error {
	for attempt := 0; ; attempt++ {
		phys := t.resolve(node)
		p, err := t.place(places, phys, node)
		if err != nil {
			return err
		}
		if err = do(p, phys); err == nil || errors.Is(err, ErrClosed) {
			return err
		}
		// The placement rejected the op — possibly because the node
		// migrated out from under us between resolve and apply.
		if attempt < migrateRetries && t.waitSettled(node, phys) {
			continue
		}
		if t.stopped() {
			return ErrClosed
		}
		// Placement errors name their local id; callers know ours.
		return fmt.Errorf("serve: node %v: %w", node, err)
	}
}

// Take removes node — any id it was ever known by — from the
// placement holding it and returns its last published availability,
// for a caller re-homing it outside this placement set; out is passed
// to Placement.Take. The id is claimed against concurrent migrations
// first (the take must hit the node's settled home) and its
// forwarding state is dropped once the take has applied. An error
// wrapping ErrWAL reports applied-but-not-durable, with the
// availability still valid.
func (t *ForwardTable) Take(places []Placement, node GlobalID, out bool) (vector.Vec, error) {
	phys, _, release, err := t.begin(node)
	if err != nil {
		return nil, err
	}
	defer release()
	p, err := t.place(places, phys, node)
	if err != nil {
		return nil, err
	}
	avail, err := p.Take(phys, out)
	if err != nil && !errors.Is(err, ErrWAL) {
		if t.stopped() {
			return nil, ErrClosed
		}
		return nil, fmt.Errorf("serve: take %v: %w", node, err)
	}
	t.Forget(phys)
	return avail, err
}

// Migrate moves node to places[to]: take from its current home
// (out is passed to Placement.Take), re-join at the destination,
// repoint every id it was ever known by. The node's external identity
// survives the move — the id Join returned keeps routing to it for
// its whole life, any former physical id for the grace window.
// Concurrent migrations of one node serialize on the table's claim;
// concurrent writes wait the move out and retry (Apply). moved
// reports whether the node changed home: false with a nil error is
// the no-op of migrating a node to the placement it is on. A
// destination failure rolls the node back home under a fresh id;
// only when the source refuses it too is the node lost, and its ids
// are forgotten so they fail fast instead of routing to a vacated
// home forever. moved with an error wrapping ErrWAL means the move
// completed and a log record is missing on one side
// (applied-but-degraded). afterTake, when non-nil, runs between the
// take and the re-join (a crash-injection point for tests).
func (t *ForwardTable) Migrate(places []Placement, node GlobalID, to int, out bool, afterTake func()) (moved bool, err error) {
	if to < 0 || to >= len(places) {
		return false, fmt.Errorf("%w: placement %d (migration destination)", ErrNoShard, to)
	}
	phys, x, release, err := t.begin(node)
	if err != nil {
		return false, err
	}
	defer release()
	src, err := t.place(places, phys, node)
	if err != nil {
		return false, err
	}
	if t.owner(phys) == to {
		return false, nil
	}
	dst := places[to]
	avail, err := src.Take(phys, out)
	var degraded error
	if errors.Is(err, ErrWAL) {
		// The take APPLIED — the node is off its source, its
		// availability in hand — only its log record is missing.
		// Aborting here would strand the node; completing the move and
		// reporting the degraded durability is the honest outcome.
		degraded, err = err, nil
	}
	if err != nil {
		if t.stopped() {
			return false, ErrClosed
		}
		return false, fmt.Errorf("serve: migrate %v: %w", node, err)
	}
	if afterTake != nil {
		afterTake()
	}
	if _, err = dst.CompleteMigration(avail, x, phys); errors.Is(err, ErrWAL) {
		// The join APPLIED; a rollback would duplicate the node.
		degraded, err = err, nil
	}
	if err != nil {
		// The node is off its source but never landed: send it home so
		// it is not lost. The rollback join assigns a fresh id, so the
		// table still repoints.
		if _, berr := src.CompleteMigration(avail, x, phys); berr != nil && !errors.Is(berr, ErrWAL) {
			t.Forget(phys)
			err = fmt.Errorf("%w (node lost, rollback: %v)", err, berr)
		}
		if t.stopped() {
			return false, ErrClosed
		}
		return false, fmt.Errorf("serve: migrate %v to placement %d: %w", node, to, err)
	}
	if degraded != nil {
		return true, fmt.Errorf("serve: migrate %v to placement %d completed: %w", node, to, degraded)
	}
	return true, nil
}

// QueryOne is the consistent query: one protocol leg against
// places[seq mod len] — like any one querying node of the paper would
// ask — ranked and reported under stable external ids. The caller
// owns seq, its round-robin counter.
func (t *ForwardTable) QueryOne(places []Placement, seq uint64, req QueryRequest) (QueryResponse, error) {
	leg, err := places[seq%uint64(len(places))].QueryLeg(req)
	if err != nil {
		return QueryResponse{}, err
	}
	return QueryResponse{
		Candidates:    t.Externalize(bestFit(leg.Cands, req.K)),
		Hops:          leg.Hops,
		ShardsQueried: leg.Queried,
	}, nil
}

// externalize maps n physical ids, reached through at, back to their
// nodes' stable external ids in place — skipping all lock traffic
// while nothing has ever migrated.
func (t *ForwardTable) externalize(n int, at func(i int) *GlobalID) {
	if t.entries.Load() == 0 {
		return
	}
	t.mu.RLock()
	for i := 0; i < n; i++ {
		id := at(i)
		*id = t.externalLocked(*id)
	}
	t.mu.RUnlock()
}

// Externalize rewrites candidate ids to their nodes' stable external
// ids (in place; the slice must be the caller's own), so query
// responses and Nodes agree on identity for migrated nodes. Cached
// entries keep physical-at-snapshot-time ids and are mapped per hit,
// so the ids stay current however the node moves between hits; any id
// handed out remains routable either way.
func (t *ForwardTable) Externalize(cands []Candidate) []Candidate {
	t.externalize(len(cands), func(i int) *GlobalID { return &cands[i].Node })
	return cands
}

// Nodes turns the physical ids a listing gathered from every
// placement into the node set callers see: stable external ids,
// ascending, each once — a node caught mid-move by the per-placement
// reads maps to the same external id from either home. In place.
func (t *ForwardTable) Nodes(ids []GlobalID) []GlobalID {
	t.externalize(len(ids), func(i int) *GlobalID { return &ids[i] })
	slices.Sort(ids)
	return slices.Compact(ids)
}

// shardPlacement adapts one in-process shard — plus its owning
// engine's forwarding table and config — to the Placement interface.
type shardPlacement struct {
	e *Engine
	s *shard
}

var _ Placement = (*shardPlacement)(nil)

// do runs one op on the shard (shard.submit) and returns its result,
// the op's own failure folded into the error.
func (p *shardPlacement) do(o op) (opResult, error) {
	res, err := p.s.submit(o)
	if err == nil {
		err = res.err
	}
	return res, err
}

// QueryLeg runs one protocol query as a shard op. The op gets its own
// copy of the demand.
func (p *shardPlacement) QueryLeg(req QueryRequest) (PlacementLeg, error) {
	res, err := p.do(op{kind: opQuery, node: -1, demand: req.Demand.Clone(), k: req.K})
	if err != nil {
		return PlacementLeg{}, err
	}
	return PlacementLeg{
		Cands:   legCandidates(nil, p.s.idx, res.recs, req.Demand, p.e.cfg.CMax),
		Hops:    res.hops,
		Queried: 1,
	}, nil
}

func (p *shardPlacement) Update(node GlobalID, avail vector.Vec, announce bool) error {
	_, err := p.do(op{kind: opUpdate, node: node.Local(), avail: avail.Clone(), announce: announce})
	return err
}

func (p *shardPlacement) Join(avail vector.Vec) (GlobalID, error) {
	res, err := p.do(op{kind: opJoin, avail: avail})
	return Global(p.s.idx, res.node), err
}

func (p *shardPlacement) Leave(node GlobalID) error {
	_, err := p.do(op{
		kind: opLeave,
		node: node.Local(),
		// Forwarding state dies under the shard's combiner lock,
		// before the leave is acknowledged: a checkpoint captured
		// later under that lock then cannot serialize forwarding
		// entries whose leave record it no longer covers.
		onApplied: func(res opResult) {
			if res.err == nil {
				p.e.fwd.Forget(node) // removed ids only matter to recovery
			}
		},
	})
	return err
}

func (p *shardPlacement) Take(node GlobalID, out bool) (vector.Vec, error) {
	res, err := p.do(op{kind: opTake, node: node.Local(), fedTake: out})
	return res.avail, err
}

func (p *shardPlacement) CompleteMigration(avail vector.Vec, ext, old GlobalID) (GlobalID, error) {
	res, err := p.do(op{
		kind:  opJoin,
		avail: avail,
		mig:   &migMeta{ext: ext, old: old},
		// Repoint under the destination shard's combiner lock, before
		// the join is acknowledged and before the shard publishes a
		// snapshot containing the new id: no reader can observe the
		// new physical id without the forwarding table already
		// translating it back to the stable external id.
		onApplied: func(res opResult) {
			if res.err == nil {
				p.e.fwd.Repoint(ext, old, Global(p.s.idx, res.node))
			}
		},
	})
	return Global(p.s.idx, res.node), err
}

// RankCandidates returns the k best of cands by best-fit quality
// (ascending surplus, ids breaking ties), ranked, as a prefix of cands
// reordered in place; k <= 0 ranks them all. It orders nothing past k.
// It is the merge step of the federation router's member gather,
// exported for it.
func RankCandidates(cands []Candidate, k int) []Candidate {
	return bestFit(cands, k)
}
