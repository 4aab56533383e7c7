// Package khdn implements KHDN-CAN, the K-Hop DHT-NEIGHBOR
// range-query baseline of the paper's evaluation (§IV.A): state
// records are routed to their duty node as in INSCAN and then
// replicated to negative CAN neighbors within K hops, so that a
// query routed to the minimal-demand zone finds the records of the
// K-hop positive duty neighborhood already replicated locally, and
// probes positive neighbors when the local pool falls short. The
// paper positions it as RT-CAN tailor-made for the SOC environment.
package khdn

import (
	"fmt"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/space"
	"pidcan/internal/vector"
)

// Config parameterizes KHDN-CAN.
type Config struct {
	// K is the replication/probing hop radius. The paper tunes K so
	// that KHDN traffic matches the other protocols; K=2 is that
	// operating point at the default cycles.
	K int
	// StateCycle and StateTTL follow the paper's §IV.A setting.
	StateCycle sim.Time
	StateTTL   sim.Time
}

// Default returns the tuned configuration. K=3 is the smallest
// radius at which the sampled replication gives KHDN a workable
// match rate at the paper's scale; its traffic runs about 2× the
// PID-CAN protocols (the paper tunes K for rough traffic parity —
// see EXPERIMENTS.md for the K sweep).
func Default() Config {
	return Config{K: 3, StateCycle: 400 * sim.Second, StateTTL: 600 * sim.Second}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("khdn: K %d < 1", c.K)
	}
	if c.StateCycle <= 0 || c.StateTTL <= 0 {
		return fmt.Errorf("khdn: non-positive cycle or TTL")
	}
	return nil
}

// KHDN is the K-hop DHT-neighbor discovery protocol.
type KHDN struct {
	env proto.Env
	cfg Config

	caches map[overlay.NodeID]*proto.Cache
	timers map[overlay.NodeID]sim.Timer
}

// New builds a KHDN-CAN instance over env.
func New(env proto.Env, cfg Config) (*KHDN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &KHDN{
		env:    env,
		cfg:    cfg,
		caches: make(map[overlay.NodeID]*proto.Cache),
		timers: make(map[overlay.NodeID]sim.Timer),
	}, nil
}

// Name implements proto.Discovery.
func (k *KHDN) Name() string { return "KHDN-CAN" }

// Start implements proto.Discovery.
func (k *KHDN) Start() {
	for _, id := range k.env.AliveNodes() {
		k.NodeJoined(id)
	}
}

// NodeJoined implements proto.Discovery.
func (k *KHDN) NodeJoined(id overlay.NodeID) {
	if _, ok := k.caches[id]; ok {
		return
	}
	k.caches[id] = proto.NewCache()
	eng := k.env.Engine()
	start := eng.Now() + sim.Time(k.env.ProtoRNG().Uniform(0, float64(k.cfg.StateCycle)))
	k.timers[id] = eng.Every(start, k.cfg.StateCycle, func() { k.stateUpdate(id) })
}

// NodeLeft implements proto.Discovery.
func (k *KHDN) NodeLeft(id overlay.NodeID) {
	k.env.Engine().Stop(k.timers[id])
	delete(k.timers, id)
	delete(k.caches, id)
}

// CacheLen reports a node's cache size (tests/inspection).
func (k *KHDN) CacheLen(id overlay.NodeID) int {
	if c, ok := k.caches[id]; ok {
		return c.Len()
	}
	return 0
}

func (k *KHDN) point(v vector.Vec) space.Point {
	n := v.Normalize(k.env.CMax())
	pt := make(space.Point, len(n))
	for i, x := range n {
		if x >= 1 {
			x = 1 - 1e-9
		}
		pt[i] = x
	}
	return pt
}

// stateUpdate routes the node's availability record to its duty node
// and replicates it to negative neighbors within K hops.
func (k *KHDN) stateUpdate(id overlay.NodeID) {
	if !k.env.Alive(id) {
		return
	}
	now := k.env.Engine().Now()
	rec := proto.Record{
		Node:    id,
		Avail:   k.env.Availability(id),
		Stored:  now,
		Expires: now + k.cfg.StateTTL,
	}
	nw := k.env.Overlay()
	path, err := nw.Route(id, k.point(rec.Avail))
	if err != nil {
		return
	}
	duty := path.Dest()
	if duty == overlay.NoNode {
		duty = id
	}
	deliver := func() { k.storeAndSpread(duty, rec) }
	if len(path.Hops) == 0 {
		deliver()
		return
	}
	k.env.SendPath(id, path.Hops, metrics.MsgStateUpdate, proto.SizeStateUpdate, deliver, nil)
}

// storeAndSpread stores the record at the duty node and replicates
// it along a sampled negative-neighbor chain of K hops per dimension
// (the paper's "K-hop sampled" neighbors — K·d messages per update,
// which is what keeps KHDN's traffic comparable to the others).
func (k *KHDN) storeAndSpread(duty overlay.NodeID, rec proto.Record) {
	cache, ok := k.caches[duty]
	if !ok {
		return
	}
	cache.Put(rec)
	cache.Purge(k.env.Engine().Now())
	nw := k.env.Overlay()
	for dim := 0; dim < nw.Dim(); dim++ {
		k.spreadChain(duty, rec, dim, k.cfg.K)
	}
}

// spreadChain forwards rec to one sampled negative neighbor along dim,
// hop by hop, ttl times.
func (k *KHDN) spreadChain(from overlay.NodeID, rec proto.Record, dim, ttl int) {
	if ttl <= 0 {
		return
	}
	nw := k.env.Overlay()
	nbs := nw.NeighborsAlong(from, dim, false)
	if len(nbs) == 0 {
		return
	}
	nb := nbs[k.env.ProtoRNG().IntN(len(nbs))]
	k.env.Send(from, nb, metrics.MsgStateUpdate, proto.SizeStateUpdate, func() {
		if c, ok := k.caches[nb]; ok {
			c.Put(rec)
		}
		k.spreadChain(nb, rec, dim, ttl-1)
	}, nil)
}

// kquery is one in-flight KHDN query.
type kquery struct {
	k         *KHDN
	requester overlay.NodeID
	demand    vector.Vec
	want      int
	hops      int
	found     []proto.Record
	frontier  []overlay.NodeID
	seen      map[overlay.NodeID]bool
	budget    int
	finished  bool
	done      func(proto.QueryResult)
}

// Query implements proto.Discovery: route to the duty node of the
// demand point, harvest its (replicated) cache, then probe positive
// neighbors breadth-first up to K hops.
func (k *KHDN) Query(requester overlay.NodeID, demand vector.Vec, want int, done func(proto.QueryResult)) {
	if want < 1 {
		want = 1
	}
	q := &kquery{
		k:         k,
		requester: requester,
		demand:    demand.Clone(),
		want:      want,
		seen:      make(map[overlay.NodeID]bool),
		done:      done,
	}
	// Probe budget: a K-hop positive frontier over d dimensions.
	d := 2
	if nw := k.env.Overlay(); nw != nil {
		d = nw.Dim()
	}
	q.budget = k.cfg.K * d * 2

	if !k.env.Alive(requester) {
		q.finish()
		return
	}
	nw := k.env.Overlay()
	path, err := nw.Route(requester, k.point(demand))
	if err != nil {
		q.finish()
		return
	}
	duty := path.Dest()
	if duty == overlay.NoNode {
		duty = requester
	}
	q.hops += len(path.Hops)
	deliver := func() { q.visit(duty) }
	if len(path.Hops) == 0 {
		deliver()
		return
	}
	k.env.SendPath(requester, path.Hops, metrics.MsgDutyQuery, proto.SizeQuery, deliver,
		func() { q.finish() })
}

// visit harvests one node's cache and extends the positive frontier.
func (q *kquery) visit(at overlay.NodeID) {
	if q.finished {
		return
	}
	q.seen[at] = true
	k := q.k
	now := k.env.Engine().Now()
	if cache, ok := k.caches[at]; ok {
		for _, r := range cache.Qualified(q.demand, now, 0) {
			if r.Node == q.requester {
				continue
			}
			q.found = append(q.found, r)
		}
	}
	q.found = proto.DedupeCandidates(q.found)
	if len(q.found) >= q.want {
		q.notifyAndFinish(at)
		return
	}
	// Extend the frontier with one sampled positive neighbor per
	// dimension ("K-hop sampled positive neighbors").
	nw := k.env.Overlay()
	rng := k.env.ProtoRNG()
	for dim := 0; dim < nw.Dim(); dim++ {
		nbs := nw.NeighborsAlong(at, dim, true)
		if len(nbs) == 0 {
			continue
		}
		nb := nbs[rng.IntN(len(nbs))]
		if !q.seen[nb] {
			q.seen[nb] = true
			q.frontier = append(q.frontier, nb)
		}
	}
	q.advance(at)
}

// advance probes the next frontier node within the budget.
func (q *kquery) advance(from overlay.NodeID) {
	if q.finished {
		return
	}
	if len(q.frontier) == 0 || q.budget <= 0 {
		q.notifyAndFinish(from)
		return
	}
	next := q.frontier[0]
	q.frontier = q.frontier[1:]
	q.budget--
	q.hops++
	q.k.env.Send(from, next, metrics.MsgDutyQuery, proto.SizeQuery,
		func() { q.visit(next) },
		func() { q.advance(from) })
}

// notifyAndFinish sends the found set back to the requester.
func (q *kquery) notifyAndFinish(from overlay.NodeID) {
	if len(q.found) > 0 && from != q.requester {
		q.hops++
		q.k.env.Send(from, q.requester, metrics.MsgFoundNotify,
			proto.SizeNotify+proto.SizeRecord*len(q.found), func() {}, nil)
	}
	q.finish()
}

func (q *kquery) finish() {
	if q.finished {
		return
	}
	q.finished = true
	if len(q.found) > q.want {
		// Sample rather than truncate the id-sorted prefix, so
		// concurrent analogous queries do not herd onto the same
		// candidates.
		q.found = sim.Sample(q.k.env.ProtoRNG(), q.found, q.want)
	}
	q.done(proto.QueryResult{
		Candidates: proto.DedupeCandidates(q.found),
		Hops:       q.hops,
	})
}
