package core

import (
	"slices"
	"sort"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/space"
	"pidcan/internal/vector"
)

// PIDCAN is the Proactive Index-Diffusion CAN protocol. One instance
// serves a whole simulation run; per-node state (duty cache γ,
// positive-index list) is held in nodeState values indexed by node
// id. A departed id keeps its zeroed 32-B slot.
type PIDCAN struct {
	env proto.Env
	cfg Config

	nodes []nodeState // by NodeID
	// onState and onDiffuse are the periodic handlers every node's
	// timers share; the engine's Arg names the node.
	onState, onDiffuse func()

	// cmaxSource, when set, supplies a per-node estimate of the
	// system-wide maximum capacity vector for the SoS bound of
	// Formula (3) — the gossip-aggregated cmax of paper ref [23]
	// (see internal/aggregate). Nil falls back to env.CMax().
	cmaxSource func(overlay.NodeID) vector.Vec
}

// nodeState is the protocol state one peer maintains. Its maps are
// made on first use; a slot without timers is not a joined node.
type nodeState struct {
	cache  proto.Cache                 // duty cache γ (records this zone keeps)
	pilist map[overlay.NodeID]sim.Time // PIList: index origin → expiry

	stateTimer sim.Timer
	diffTimer  sim.Timer
}

// index records an index message from origin, valid until exp.
func (st *nodeState) index(origin overlay.NodeID, exp sim.Time) {
	if st.pilist == nil {
		st.pilist = make(map[overlay.NodeID]sim.Time)
	}
	st.pilist[origin] = exp
}

// New builds a PID-CAN instance over env. The config must validate.
func New(env proto.Env, cfg Config) (*PIDCAN, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &PIDCAN{env: env, cfg: cfg}
	p.onState = func() { p.stateUpdate(overlay.NodeID(env.Engine().Arg())) }
	p.onDiffuse = func() { p.diffuse(overlay.NodeID(env.Engine().Arg())) }
	return p, nil
}

// Name implements proto.Discovery.
func (p *PIDCAN) Name() string { return p.cfg.Name() }

// Config returns the active configuration.
func (p *PIDCAN) Config() Config { return p.cfg }

// SetCMaxSource installs a per-node cmax estimator used by the SoS
// slack bound (Formula 3) in place of the static env.CMax().
func (p *PIDCAN) SetCMaxSource(src func(overlay.NodeID) vector.Vec) { p.cmaxSource = src }

// Start installs the periodic state-update and index-diffusion
// behaviour on every alive node, with per-node phase jitter so cycles
// are not synchronized. It reserves the nodes' slots and their two
// timers' engine slots and queue entries first.
func (p *PIDCAN) Start() {
	alive := p.env.AliveNodes()
	top := overlay.NodeID(-1)
	for _, id := range alive {
		top = max(top, id)
	}
	p.nodes = slices.Grow(p.nodes, max(0, int(top)+1-len(p.nodes)))
	p.env.Engine().Grow(2 * len(alive))
	for _, id := range alive {
		p.NodeJoined(id)
	}
}

// NodeJoined implements proto.Discovery.
func (p *PIDCAN) NodeJoined(id overlay.NodeID) {
	if p.state(id) != nil {
		return
	}
	for int(id) >= len(p.nodes) {
		p.nodes = append(p.nodes, nodeState{})
	}
	st := &p.nodes[id]
	eng := p.env.Engine()
	rng := p.env.ProtoRNG()
	startS := eng.Now() + sim.Time(rng.Uniform(0, float64(p.cfg.StateCycle)))
	st.stateTimer = eng.EveryArg(startS, p.cfg.StateCycle, int32(id), p.onState)
	startD := eng.Now() + sim.Time(rng.Uniform(0, float64(p.cfg.DiffusionCycle)))
	st.diffTimer = eng.EveryArg(startD, p.cfg.DiffusionCycle, int32(id), p.onDiffuse)
}

// NodeLeft implements proto.Discovery: the departed node's cached
// records and PIList die with it; indexes pointing *to* it elsewhere
// decay by TTL (modelled staleness).
func (p *PIDCAN) NodeLeft(id overlay.NodeID) {
	st := p.state(id)
	if st == nil {
		return
	}
	eng := p.env.Engine()
	eng.Stop(st.stateTimer)
	eng.Stop(st.diffTimer)
	*st = nodeState{}
}

// state returns the protocol state of an alive node, or nil. The
// pointer is good until the next NodeJoined.
func (p *PIDCAN) state(id overlay.NodeID) *nodeState {
	if id < 0 || int(id) >= len(p.nodes) || p.nodes[id].stateTimer == (sim.Timer{}) {
		return nil
	}
	return &p.nodes[id]
}

// CacheLen reports the duty-cache size of a node (tests/inspection).
func (p *PIDCAN) CacheLen(id overlay.NodeID) int {
	if st := p.state(id); st != nil {
		return st.cache.Len()
	}
	return 0
}

// PIListLen reports the unexpired PIList size of a node.
func (p *PIDCAN) PIListLen(id overlay.NodeID) int {
	st := p.state(id)
	if st == nil {
		return 0
	}
	now := p.env.Engine().Now()
	n := 0
	for _, exp := range st.pilist {
		if exp > now {
			n++
		}
	}
	return n
}

// point maps a resource vector into the CAN space, appending a
// uniform virtual coordinate in VD mode.
func (p *PIDCAN) point(v vector.Vec) space.Point {
	n := v.Normalize(p.env.CMax())
	pt := make(space.Point, 0, len(n)+1)
	for _, x := range n {
		// Keep strictly inside the half-open cube.
		if x >= 1 {
			x = 1 - 1e-9
		}
		pt = append(pt, x)
	}
	if p.cfg.VirtualDim {
		pt = append(pt, p.env.ProtoRNG().Float64())
	}
	return pt
}

// --- state updates ---------------------------------------------------------

// StateUpdateNow forces an out-of-cycle state update for the node —
// the push API of the standalone cluster facade.
func (p *PIDCAN) StateUpdateNow(id overlay.NodeID) { p.stateUpdate(id) }

// stateUpdate detects the node's availability and routes it over
// INSCAN to the duty node whose zone encloses it (§III.A).
func (p *PIDCAN) stateUpdate(id overlay.NodeID) {
	if !p.env.Alive(id) {
		return
	}
	nw := p.env.Overlay()
	now := p.env.Engine().Now()
	avail := p.env.Availability(id)
	rec := proto.Record{
		Node:    id,
		Avail:   avail,
		Stored:  now,
		Expires: now + p.cfg.StateTTL,
	}
	target := p.point(avail)
	path, err := nw.Route(id, target)
	if err != nil {
		return // overlay churned under us this tick; next cycle retries
	}
	duty := path.Dest()
	if duty == overlay.NoNode {
		duty = id
	}
	store := func() {
		if st := p.state(duty); st != nil {
			st.cache.Put(rec)
			st.cache.Purge(p.env.Engine().Now())
		}
	}
	if len(path.Hops) == 0 {
		store()
		return
	}
	p.env.SendPath(id, path.Hops, metrics.MsgStateUpdate, proto.SizeStateUpdate, store, nil)
}

// --- index diffusion (Algorithms 1 and 2) ----------------------------------

// indexMsg is the paper's index message {ID, dim_NO, dim_TTL}.
type indexMsg struct {
	origin overlay.NodeID
	dim    int
	ttl    int
}

// diffuse is the index-sender (Algorithm 1): when the duty cache is
// non-empty the node advertises its own identifier to negative-index
// nodes so that requesters in its negative direction can find it.
func (p *PIDCAN) diffuse(id overlay.NodeID) {
	if !p.env.Alive(id) {
		return
	}
	st := p.state(id)
	if st == nil {
		return
	}
	now := p.env.Engine().Now()
	st.cache.Purge(now)
	p.purgePIList(st, now)
	if st.cache.Len() == 0 {
		return
	}
	switch p.cfg.Mode {
	case Hopping:
		// One message along dimension 0 with TTL L; relays fan out
		// across dimensions (Algorithm 1 line 3-5).
		target := p.ninode(id, 0)
		if target == overlay.NoNode {
			return
		}
		p.sendIndex(id, target, indexMsg{origin: id, dim: 0, ttl: p.cfg.L})
	case Spreading:
		// The origin itself selects L negative-index nodes per
		// dimension (Fig. 3(a)); no relaying.
		d := p.env.Overlay().Dim()
		for dim := 0; dim < d; dim++ {
			for i := 0; i < p.cfg.L; i++ {
				target := p.ninode(id, dim)
				if target == overlay.NoNode {
					continue
				}
				p.sendIndex(id, target, indexMsg{origin: id, dim: dim, ttl: 0})
			}
		}
	}
}

// sendIndex delivers one index message and triggers the receiver's
// index-relay handling.
func (p *PIDCAN) sendIndex(from, to overlay.NodeID, m indexMsg) {
	p.env.Send(from, to, metrics.MsgIndexDiffusion, proto.SizeIndex, func() {
		p.onIndex(to, m)
	}, nil)
}

// onIndex is the index-relay handler (Algorithm 2).
func (p *PIDCAN) onIndex(at overlay.NodeID, m indexMsg) {
	st := p.state(at)
	if st == nil {
		return
	}
	now := p.env.Engine().Now()
	if m.origin != at {
		st.index(m.origin, now+p.cfg.IndexTTL)
	}
	if p.cfg.Mode != Hopping {
		return
	}
	// Continue along the same dimension within the residual TTL.
	if m.ttl-1 > 0 {
		if t := p.ninode(at, m.dim); t != overlay.NoNode {
			p.sendIndex(at, t, indexMsg{origin: m.origin, dim: m.dim, ttl: m.ttl - 1})
		}
	}
	// Open the next dimension with a fresh TTL.
	if m.dim < p.env.Overlay().Dim()-1 {
		if t := p.ninode(at, m.dim+1); t != overlay.NoNode {
			p.sendIndex(at, t, indexMsg{origin: m.origin, dim: m.dim + 1, ttl: p.cfg.L})
		}
	}
}

// ninode picks a random negative-index node of id along dim: a node
// 2^k zone-hops away in the negative direction, k uniform in
// 0…⌊log2 n^{1/d}⌋ (§III.A lists k=0,1,2,…), reached by a
// random-neighbor walk so that successive rounds sample different
// index nodes across the face cross-section. Near the space edge the
// walk may stop short; the farthest reached node is used, NoNode if
// none.
func (p *PIDCAN) ninode(id overlay.NodeID, dim int) overlay.NodeID {
	nw := p.env.Overlay()
	rng := p.env.ProtoRNG()
	k := nw.MaxIndexExponent()
	dist := 1 << uint(rng.IntN(k+1))
	reached, taken := nw.RandomWalkDim(id, dim, false, dist, rng)
	if taken == 0 {
		return overlay.NoNode
	}
	return reached
}

func (p *PIDCAN) purgePIList(st *nodeState, now sim.Time) {
	for id, exp := range st.pilist {
		if exp <= now {
			delete(st.pilist, id)
		}
	}
}

// pilistSample returns up to k unexpired PIList entries of st not in
// skip, uniformly sampled, in deterministic order.
func (p *PIDCAN) pilistSample(st *nodeState, now sim.Time, k int, skip map[overlay.NodeID]bool) []overlay.NodeID {
	ids := make([]overlay.NodeID, 0, len(st.pilist))
	for id, exp := range st.pilist {
		if exp > now && !skip[id] {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return sim.Sample(p.env.ProtoRNG(), ids, k)
}

// --- query (Algorithms 3, 4 and 5) -----------------------------------------

// query carries the state of one in-flight resource query. Messages
// reference the query object directly; the simulated network only
// transports control flow and latency.
type query struct {
	p         *PIDCAN
	requester overlay.NodeID
	demand    vector.Vec       // original e(t)
	search    vector.Vec       // e or the SoS-slacked e′
	delta     int              // δ: results still wanted
	agents    []overlay.NodeID // ι
	jumps     []overlay.NodeID // j
	visited   map[overlay.NodeID]bool
	found     []proto.Record
	hops      int
	done      func(proto.QueryResult)
	finished  bool
	sosPhase  bool // true while searching with the slacked vector
}

// Query implements proto.Discovery: the three-phase contention-
// minimized multi-dimensional range query of §III.C.
func (p *PIDCAN) Query(requester overlay.NodeID, demand vector.Vec, k int, done func(proto.QueryResult)) {
	if k < 1 {
		k = 1
	}
	q := &query{
		p:         p,
		requester: requester,
		demand:    demand.Clone(),
		search:    demand.Clone(),
		delta:     k,
		visited:   make(map[overlay.NodeID]bool),
		done:      done,
	}
	if p.cfg.SoS {
		q.sosPhase = true
		q.search = p.slack(requester, demand)
	}
	q.start()
}

// slack draws e′ with e ⪯ e′ ⪯ cmax componentwise (Formula 3). The
// bound is the requester's aggregated cmax estimate when an
// estimator is installed, else the static system cmax.
func (p *PIDCAN) slack(requester overlay.NodeID, e vector.Vec) vector.Vec {
	cmax := p.env.CMax()
	if p.cmaxSource != nil {
		if est := p.cmaxSource(requester); est != nil && est.Dim() == e.Dim() {
			cmax = est
		}
	}
	out := make(vector.Vec, e.Dim())
	rng := p.env.ProtoRNG()
	for i := range out {
		hi := cmax[i]
		if hi < e[i] {
			hi = e[i]
		}
		out[i] = rng.Uniform(e[i], hi)
	}
	return out
}

// start routes the duty-query message to the duty node D1 whose zone
// encloses the expectation vector (Algorithm 3).
func (q *query) start() {
	if !q.p.env.Alive(q.requester) {
		q.finish()
		return
	}
	nw := q.p.env.Overlay()
	target := q.p.point(q.search)
	path, err := nw.Route(q.requester, target)
	if err != nil {
		q.finish()
		return
	}
	duty := path.Dest()
	if duty == overlay.NoNode {
		duty = q.requester
	}
	if len(path.Hops) == 0 {
		q.onDuty(duty)
		return
	}
	q.hops += len(path.Hops)
	q.p.env.SendPath(q.requester, path.Hops, metrics.MsgDutyQuery, proto.SizeQuery,
		func() { q.onDuty(duty) },
		func() { q.shortfall() })
}

// onDuty runs on the duty node: optionally search its own cache,
// then build the index-agent list ι from d positive neighbors (one
// per dimension, chosen uniformly) and dispatch the first agent.
func (q *query) onDuty(duty overlay.NodeID) {
	if q.finished {
		return
	}
	p := q.p
	now := p.env.Engine().Now()
	if !p.cfg.SkipDutyCache {
		if st := p.state(duty); st != nil {
			q.collect(st.cache.QualifiedSample(q.search, now, q.delta, p.env.ProtoRNG()))
			if q.delta <= 0 {
				q.finish()
				return
			}
		}
	}
	nw := p.env.Overlay()
	rng := p.env.ProtoRNG()
	seen := map[overlay.NodeID]bool{duty: true}
	for dim := 0; dim < nw.Dim(); dim++ {
		nbs := nw.NeighborsAlong(duty, dim, true)
		if len(nbs) == 0 {
			continue
		}
		pick := nbs[rng.IntN(len(nbs))]
		if !seen[pick] {
			seen[pick] = true
			q.agents = append(q.agents, pick)
		}
	}
	q.nextAgent(duty)
}

// nextAgent pops a random agent from ι and sends it the index-agent
// message; with ι exhausted the query resolves with what it has.
func (q *query) nextAgent(from overlay.NodeID) {
	if q.finished {
		return
	}
	if len(q.agents) == 0 {
		q.shortfall()
		return
	}
	rng := q.p.env.ProtoRNG()
	i := rng.IntN(len(q.agents))
	agent := q.agents[i]
	q.agents = append(q.agents[:i], q.agents[i+1:]...)
	q.hops++
	q.p.env.Send(from, agent, metrics.MsgIndexAgent, proto.SizeQuery,
		func() { q.onAgent(agent) },
		func() { q.nextAgent(from) })
}

// onAgent runs Algorithm 4: assemble an index-jump list from the
// agent's PIList and start hopping.
func (q *query) onAgent(agent overlay.NodeID) {
	if q.finished {
		return
	}
	p := q.p
	st := p.state(agent)
	if st == nil {
		q.nextAgent(agent)
		return
	}
	now := p.env.Engine().Now()
	q.jumps = p.pilistSample(st, now, p.cfg.JumpListSize, q.visited)
	if len(q.jumps) == 0 {
		q.nextAgent(agent)
		return
	}
	q.nextJump(agent)
}

// nextJump pops a random index node from j and sends the index-jump
// message (Algorithm 4 line 3-4 / Algorithm 5 line 8-9).
func (q *query) nextJump(from overlay.NodeID) {
	if q.finished {
		return
	}
	if len(q.jumps) == 0 {
		q.nextAgent(from)
		return
	}
	rng := q.p.env.ProtoRNG()
	i := rng.IntN(len(q.jumps))
	idx := q.jumps[i]
	q.jumps = append(q.jumps[:i], q.jumps[i+1:]...)
	q.hops++
	q.p.env.Send(from, idx, metrics.MsgIndexJump, proto.SizeQuery,
		func() { q.onJump(idx) },
		func() { q.nextJump(from) })
}

// onJump runs Algorithm 5 on an index node: search its duty cache,
// notify the requester of any qualified records, and continue until
// δ is satisfied or both j and ι are exhausted.
func (q *query) onJump(idx overlay.NodeID) {
	if q.finished {
		return
	}
	q.visited[idx] = true
	p := q.p
	st := p.state(idx)
	if st == nil {
		q.nextJump(idx)
		return
	}
	now := p.env.Engine().Now()
	phi := st.cache.QualifiedSample(q.search, now, q.delta, p.env.ProtoRNG())
	if len(phi) > 0 {
		q.collect(phi)
		// ϕ is sent to the requester immediately (Algorithm 5 line 3).
		q.hops++
		p.env.Send(idx, q.requester, metrics.MsgFoundNotify,
			proto.SizeNotify+proto.SizeRecord*len(phi), func() {}, nil)
	}
	if q.delta <= 0 {
		q.finish()
		return
	}
	q.nextJump(idx)
}

// collect appends qualified records and decrements δ (Algorithm 5
// line 4).
func (q *query) collect(recs []proto.Record) {
	for _, r := range recs {
		if r.Node == q.requester {
			continue // a node does not schedule onto itself via discovery
		}
		q.found = append(q.found, r)
		q.delta--
	}
}

// shortfall handles an exhausted search: under SoS the original
// expectation vector is restored and the whole procedure re-runs
// once (§III.C); otherwise the query resolves with what was found.
func (q *query) shortfall() {
	if q.finished {
		return
	}
	if q.sosPhase && q.delta > 0 {
		q.sosPhase = false
		q.search = q.demand.Clone()
		q.start()
		return
	}
	q.finish()
}

// finish invokes done exactly once.
func (q *query) finish() {
	if q.finished {
		return
	}
	q.finished = true
	q.done(proto.QueryResult{
		Candidates: proto.DedupeCandidates(q.found),
		Hops:       q.hops,
	})
}
