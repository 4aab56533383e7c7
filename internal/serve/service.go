package serve

import (
	"errors"

	"pidcan/internal/vector"
)

// Service is the node-serving surface both edges (HTTP and the wire
// protocol) are written against: an *Engine satisfies it directly,
// and the federation router (internal/serve/fed) satisfies it by
// scatter-gathering over remote primaries — so one process and a
// whole federation are served by the same handlers.
type Service interface {
	Query(req QueryRequest) (QueryResponse, error)
	Update(node GlobalID, avail vector.Vec, announce bool) error
	Join(avail vector.Vec) (GlobalID, error)
	// JoinOn targets one placement by index — a shard on an engine,
	// a federation member on a router.
	JoinOn(place int, avail vector.Vec) (GlobalID, error)
	Leave(node GlobalID) error
	// Take removes a node and returns its last published
	// availability, for callers re-homing it in another process
	// (the fed-take half of a cross-process migration). An error
	// wrapping ErrWAL means applied-but-not-durable; the
	// availability is still valid.
	Take(node GlobalID) (vector.Vec, error)
	Nodes() []GlobalID
	// Epoch and Fence carry the write-fencing discipline: Epoch is
	// the current promotion epoch (a router reports a counter of its
	// own that moves whenever a member answers with a higher epoch
	// than it had recorded), Fence reacts to evidence of a newer one.
	Epoch() uint64
	Fence(epoch uint64)
	// PrimaryAddr is the address redirected writes should retry
	// against, or "" when this service accepts writes itself.
	PrimaryAddr() string
	// StatsPayload is the /stats (and wire OpStats) JSON document.
	StatsPayload() any
}

var _ Service = (*Engine)(nil)

// AvailSummarizer is implemented by services able to publish a
// compact availability summary for federation demand-region pruning:
// max is the per-dimension maximum availability over every record
// held (expiry ignored — a safe upper bound), pop the record count
// behind it, and seq the write epoch the summary reflects. ok is
// false when the service holds no summarizable population of its own
// (a federation router, say); callers then omit the summary rather
// than fabricate one.
type AvailSummarizer interface {
	AvailSummary() (max vector.Vec, pop int, seq uint64, ok bool)
}

var _ AvailSummarizer = (*Engine)(nil)

// availSummary is the Engine's cached AvailSummary result.
type availSummary struct {
	max vector.Vec
	pop int
	seq uint64
}

// AvailSummary computes the engine's availability summary over every
// shard's published snapshot — read off each index's directory, not
// its records. The write epoch is read BEFORE the
// scan: records applied mid-scan can only push the maxima higher, so
// the result is always a valid upper bound for the returned seq.
// The result is cached until the next mutating batch; the returned
// vector is shared and must not be mutated.
func (e *Engine) AvailSummary() (vector.Vec, int, uint64, bool) {
	seq := e.epoch.Load()
	if s := e.availSum.Load(); s != nil && s.seq == seq {
		return s.max, s.pop, s.seq, true
	}
	max := make(vector.Vec, e.cfg.CMax.Dim())
	pop := 0
	for _, sh := range e.shards {
		flat := sh.snapshot().flat
		pop += flat.Len()
		flat.RaiseMax(max)
	}
	s := &availSummary{max: max, pop: pop, seq: seq}
	e.availSum.Store(s)
	return s.max, s.pop, s.seq, true
}

// PrimaryAddr returns the configured primary address followers
// redirect writes to ("" on a primary).
func (e *Engine) PrimaryAddr() string { return e.cfg.PrimaryAddr }

// StatsPayload returns the Stats snapshot as the serving edges'
// opaque stats document.
func (e *Engine) StatsPayload() any { return e.Stats() }

// Take removes a node from the engine — any id it was ever known by
// — and returns its last published availability, so a federation
// router can re-join it in another primary process. Unlike a local
// Migrate's take, the removal is logged as a plain leave: if this
// process crashes afterwards, recovery must not resurrect a node
// whose new home is another process's WAL. Forwarding state for the
// node is dropped once the take is applied. An error wrapping ErrWAL
// reports applied-but-not-durable, with the availability still
// valid.
func (e *Engine) Take(node GlobalID) (vector.Vec, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := e.writable(); err != nil {
		e.errors.Add(1)
		return nil, err
	}
	avail, err := e.fwd.Take(e.places, node, true)
	if err != nil {
		e.errors.Add(1)
	}
	if err == nil || errors.Is(err, ErrWAL) {
		e.leaves.Add(1)
	}
	return avail, err
}
