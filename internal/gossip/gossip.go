// Package gossip implements the Newscast baseline of the paper's
// evaluation (§IV.A, ref [26]): an unstructured P2P protocol where
// every node keeps a partial view of at most log2(n) fresh peer
// records, periodically exchanges views with a random peer, and
// answers resource queries from its view, forwarding the query to
// random peers when the local view has no qualified entry.
package gossip

import (
	"fmt"
	"math"
	"sort"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// Config parameterizes the Newscast baseline.
type Config struct {
	// Cycle is the view-exchange period. The paper tunes gossip
	// traffic to match the CAN protocols; one exchange (2 messages)
	// per state-update period is that operating point.
	Cycle sim.Time
	// EntryTTL is the view-entry freshness bound.
	EntryTTL sim.Time
	// QueryTTL bounds query forwarding hops; 0 means ⌈log2 n⌉,
	// chosen at Start.
	QueryTTL int
}

// Default returns the traffic-matched configuration.
func Default() Config {
	return Config{
		Cycle:    400 * sim.Second,
		EntryTTL: 600 * sim.Second,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cycle <= 0 || c.EntryTTL <= 0 {
		return fmt.Errorf("gossip: non-positive cycle or TTL")
	}
	if c.QueryTTL < 0 {
		return fmt.Errorf("gossip: negative query TTL")
	}
	return nil
}

// Newscast is the gossip discovery protocol.
type Newscast struct {
	env proto.Env
	cfg Config

	views    map[overlay.NodeID]map[overlay.NodeID]proto.Record
	timers   map[overlay.NodeID]sim.Timer
	viewSize int
	queryTTL int
}

// New builds a Newscast instance over env.
func New(env proto.Env, cfg Config) (*Newscast, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Newscast{
		env:    env,
		cfg:    cfg,
		views:  make(map[overlay.NodeID]map[overlay.NodeID]proto.Record),
		timers: make(map[overlay.NodeID]sim.Timer),
	}, nil
}

// Name implements proto.Discovery.
func (g *Newscast) Name() string { return "Newscast" }

// ViewSize returns the fan-out bound (⌈log2 n⌉, fixed at Start).
func (g *Newscast) ViewSize() int { return g.viewSize }

// Start implements proto.Discovery: sizes the views to ⌈log2 n⌉ and
// installs the gossip cycle on every node with bootstrap views of
// random peers.
func (g *Newscast) Start() {
	nodes := g.env.AliveNodes()
	n := len(nodes)
	g.viewSize = 1
	if n > 1 {
		g.viewSize = int(math.Ceil(math.Log2(float64(n))))
	}
	g.queryTTL = g.cfg.QueryTTL
	if g.queryTTL == 0 {
		g.queryTTL = g.viewSize
	}
	for _, id := range nodes {
		g.NodeJoined(id)
	}
}

// NodeJoined implements proto.Discovery.
func (g *Newscast) NodeJoined(id overlay.NodeID) {
	if _, ok := g.views[id]; ok {
		return
	}
	if g.viewSize == 0 {
		g.viewSize = 1
	}
	if g.queryTTL == 0 {
		g.queryTTL = g.viewSize
	}
	g.views[id] = make(map[overlay.NodeID]proto.Record)
	g.bootstrap(id)
	eng := g.env.Engine()
	start := eng.Now() + sim.Time(g.env.ProtoRNG().Uniform(0, float64(g.cfg.Cycle)))
	g.timers[id] = eng.Every(start, g.cfg.Cycle, func() { g.exchange(id) })
}

// NodeLeft implements proto.Discovery.
func (g *Newscast) NodeLeft(id overlay.NodeID) {
	g.env.Engine().Stop(g.timers[id])
	delete(g.timers, id)
	delete(g.views, id)
}

// bootstrap seeds a fresh node's view with random peer identities
// (no availability knowledge yet — entries carry zero vectors that
// never qualify, but give the gossip cycle somebody to talk to).
func (g *Newscast) bootstrap(id overlay.NodeID) {
	nodes := g.env.AliveNodes()
	if len(nodes) <= 1 {
		return
	}
	rng := g.env.ProtoRNG()
	now := g.env.Engine().Now()
	view := g.views[id]
	for len(view) < g.viewSize {
		peer := nodes[rng.IntN(len(nodes))]
		if peer == id {
			continue
		}
		if _, ok := view[peer]; ok {
			// Enough distinct peers may not exist; bail after the
			// draw space is clearly saturated.
			if len(view) >= len(nodes)-1 {
				break
			}
			continue
		}
		view[peer] = proto.Record{Node: peer, Stored: now, Expires: now + g.cfg.EntryTTL}
	}
}

// selfRecord builds the node's fresh availability record.
func (g *Newscast) selfRecord(id overlay.NodeID) proto.Record {
	now := g.env.Engine().Now()
	return proto.Record{
		Node:    id,
		Avail:   g.env.Availability(id),
		Stored:  now,
		Expires: now + g.cfg.EntryTTL,
	}
}

// sortedView returns the view entries of id in ascending node order.
func (g *Newscast) sortedView(id overlay.NodeID) []proto.Record {
	view := g.views[id]
	out := make([]proto.Record, 0, len(view))
	ids := make([]overlay.NodeID, 0, len(view))
	for p := range view {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, p := range ids {
		out = append(out, view[p])
	}
	return out
}

// merge folds incoming records into id's view, keeping the freshest
// entry per peer and truncating to the viewSize freshest entries
// (the Newscast aggregation rule).
func (g *Newscast) merge(id overlay.NodeID, incoming []proto.Record) {
	view, ok := g.views[id]
	if !ok {
		return
	}
	now := g.env.Engine().Now()
	for _, r := range incoming {
		if r.Node == id || r.Expired(now) {
			continue
		}
		if old, ok := view[r.Node]; !ok || r.Stored > old.Stored {
			view[r.Node] = r
		}
	}
	if len(view) <= g.viewSize {
		return
	}
	// Keep the viewSize freshest entries (ties by node id for
	// determinism).
	recs := g.sortedView(id)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Stored > recs[j].Stored })
	for _, r := range recs[g.viewSize:] {
		delete(view, r.Node)
	}
}

// peerChoice picks a random alive-looking view entry of id.
func (g *Newscast) peerChoice(id overlay.NodeID) (overlay.NodeID, bool) {
	recs := g.sortedView(id)
	if len(recs) == 0 {
		return 0, false
	}
	r := sim.Pick(g.env.ProtoRNG(), recs)
	return r.Node, true
}

// exchange performs one Newscast round for node id: push the view
// plus the fresh self record to a random peer, which merges and
// pushes its own view back.
func (g *Newscast) exchange(id overlay.NodeID) {
	if !g.env.Alive(id) {
		return
	}
	peer, ok := g.peerChoice(id)
	if !ok {
		g.bootstrap(id)
		return
	}
	outbound := append(g.sortedView(id), g.selfRecord(id))
	g.env.Send(id, peer, metrics.MsgGossip, proto.SizeGossip*len(outbound), func() {
		g.merge(peer, outbound)
		reply := append(g.sortedView(peer), g.selfRecord(peer))
		g.env.Send(peer, id, metrics.MsgGossip, proto.SizeGossip*len(reply), func() {
			g.merge(id, reply)
		}, nil)
	}, func() {
		// Peer is gone: forget the stale entry.
		if view, ok := g.views[id]; ok {
			delete(view, peer)
		}
	})
}

// Query implements proto.Discovery: check the local view; on a
// shortfall forward the query to a random view peer, up to the
// forwarding TTL (single query message in flight, per the paper's
// traffic constraint).
func (g *Newscast) Query(requester overlay.NodeID, demand vector.Vec, k int, done func(proto.QueryResult)) {
	if k < 1 {
		k = 1
	}
	st := &gquery{
		g:         g,
		requester: requester,
		demand:    demand.Clone(),
		want:      k,
		ttl:       g.queryTTL,
		seen:      make(map[overlay.NodeID]bool),
		done:      done,
	}
	st.visit(requester)
}

type gquery struct {
	g         *Newscast
	requester overlay.NodeID
	demand    vector.Vec
	want      int
	ttl       int
	hops      int
	seen      map[overlay.NodeID]bool
	found     []proto.Record
	finished  bool
	done      func(proto.QueryResult)
}

// visit checks at's view and forwards on a shortfall.
func (q *gquery) visit(at overlay.NodeID) {
	if q.finished {
		return
	}
	g := q.g
	now := g.env.Engine().Now()
	view, ok := g.views[at]
	if ok {
		for _, r := range g.sortedView(at) {
			if r.Expired(now) || r.Node == q.requester || r.Avail == nil {
				continue
			}
			if q.seen[r.Node] || !r.Qualifies(q.demand) {
				continue
			}
			q.seen[r.Node] = true
			q.found = append(q.found, r)
			if len(q.found) >= q.want {
				break
			}
		}
	}
	_ = view
	if len(q.found) >= q.want || q.ttl <= 0 {
		q.finish()
		return
	}
	// Forward to a random view peer.
	peer, ok := g.peerChoice(at)
	if !ok {
		q.finish()
		return
	}
	q.ttl--
	q.hops++
	g.env.Send(at, peer, metrics.MsgDutyQuery, proto.SizeQuery,
		func() { q.visit(peer) },
		func() { q.finish() })
}

func (q *gquery) finish() {
	if q.finished {
		return
	}
	q.finished = true
	if len(q.found) > 0 && q.hops > 0 {
		// Found records travel back to the requester.
		q.hops++
		q.g.env.Send(q.requester, q.requester, metrics.MsgFoundNotify,
			proto.SizeNotify+proto.SizeRecord*len(q.found), func() {}, nil)
	}
	q.done(proto.QueryResult{
		Candidates: proto.DedupeCandidates(q.found),
		Hops:       q.hops,
	})
}
