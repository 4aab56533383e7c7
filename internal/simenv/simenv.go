// Package simenv is the simulated world the discovery protocols run
// in: the one proto.Env implementation, shared by the paper's
// simulation (internal/cloud), the serving backend (pidcan.Cluster)
// and the protocol test double (internal/prototest). It owns the event
// engine, the protocol randomness stream, cmax, the overlay, the
// message recorder, the per-hop latency, node liveness and the
// join/leave bookkeeping that keeps them in step. Each embedder adds
// only its own payload — what Availability reports — and policy.
package simenv

import (
	"fmt"
	"slices"

	"pidcan/internal/metrics"
	"pidcan/internal/netmodel"
	"pidcan/internal/overlay"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// Env is a simulated set of nodes: every proto.Env method but
// Availability, which the embedder supplies. It is single-goroutine.
type Env struct {
	eng  *sim.Engine
	rng  *sim.RNG
	cmax vector.Vec
	nw   *overlay.Network // nil without an overlay (Newscast)
	rec  *metrics.Recorder
	net  *netmodel.Model // nil: every hop takes one millisecond

	alive []bool // by NodeID
	// ids holds every alive id, ascending, and the stale ids of the
	// nodes that left since it was last compacted: by AliveNodes, or
	// by Leave once they are half of it. A Leave costs amortized O(1)
	// however large the population.
	ids   []overlay.NodeID
	stale int
	next  overlay.NodeID // the id the next Join takes

	// inflight holds the messages on their way, each at the Arg of its
	// delivery timer, whose callback land passes it to arrive; idle
	// lists the free slots.
	inflight []delivery
	idle     []int32
	land     func()
}

// delivery is a message in flight: deliver runs if node to is alive
// when it arrives, onDrop, if any, if it is not.
type delivery struct {
	deliver, onDrop func()
	to              overlay.NodeID
}

// New builds a world of n >= 1 nodes, ids 0..n-1, all alive. With dims > 0
// they all join a dims-dimensional overlay; dims 0 builds none. net
// configures the LAN/WAN latency model; nil makes every hop take one
// millisecond. All randomness derives from seed, one stream per
// concern.
func New(seed uint64, n, dims int, cmax vector.Vec, net *netmodel.Config) (*Env, error) {
	e := &Env{
		eng:   sim.New(),
		rng:   sim.NewRNG(seed, sim.StreamProtocol),
		cmax:  cmax,
		rec:   metrics.NewRecorder(),
		alive: make([]bool, n),
		ids:   make([]overlay.NodeID, n),
		next:  overlay.NodeID(n),
	}
	e.land = func() { e.arrive(e.eng.Arg()) }
	if net != nil {
		e.net = netmodel.New(*net, n, sim.NewRNG(seed, sim.StreamNetwork))
	}
	if dims > 0 {
		e.nw = overlay.New(dims, 0, sim.NewRNG(seed, sim.StreamOverlay))
		if err := e.nw.JoinAll(1, n-1); err != nil {
			return nil, fmt.Errorf("simenv: building overlay: %w", err)
		}
	}
	for i := range n {
		e.alive[i] = true
		e.ids[i] = overlay.NodeID(i)
	}
	return e, nil
}

// Engine implements proto.Env.
func (e *Env) Engine() *sim.Engine { return e.eng }

// ProtoRNG implements proto.Env.
func (e *Env) ProtoRNG() *sim.RNG { return e.rng }

// Overlay implements proto.Env.
func (e *Env) Overlay() *overlay.Network { return e.nw }

// CMax implements proto.Env.
func (e *Env) CMax() vector.Vec { return e.cmax }

// Recorder returns the message and task counters.
func (e *Env) Recorder() *metrics.Recorder { return e.rec }

// Alive implements proto.Env.
func (e *Env) Alive(id overlay.NodeID) bool {
	return id >= 0 && int(id) < len(e.alive) && e.alive[id]
}

// AliveNodes implements proto.Env. The slice is shared: it is valid
// until the next Join or Leave, and callers must not modify it.
func (e *Env) AliveNodes() []overlay.NodeID {
	if e.stale > 0 {
		e.compact()
	}
	return e.ids
}

// compact drops the stale ids from the alive list.
func (e *Env) compact() {
	e.ids = slices.DeleteFunc(e.ids, func(id overlay.NodeID) bool { return !e.alive[id] })
	e.stale = 0
}

// Size returns the alive population.
func (e *Env) Size() int { return len(e.ids) - e.stale }

// Send implements proto.Env.
func (e *Env) Send(from, to overlay.NodeID, kind metrics.MsgKind, size int, deliver func(), onDrop func()) {
	if !e.Alive(from) {
		return
	}
	e.rec.Message(kind)
	e.deliverAfter(e.latency(from, to, size), to, deliver, onDrop)
}

// SendPath implements proto.Env: one counted message per hop, the
// hops' latencies summed, delivery if the final hop is alive then.
func (e *Env) SendPath(from overlay.NodeID, path []overlay.NodeID, kind metrics.MsgKind, size int, deliver func(), onDrop func()) {
	if !e.Alive(from) || len(path) == 0 {
		return
	}
	e.rec.Messages(kind, int64(len(path)))
	var lat sim.Time
	prev := from
	for _, hop := range path {
		lat += e.latency(prev, hop, size)
		prev = hop
	}
	e.deliverAfter(lat, prev, deliver, onDrop)
}

// latency is one hop's delivery delay.
func (e *Env) latency(from, to overlay.NodeID, size int) sim.Time {
	if e.net == nil {
		return sim.Millisecond
	}
	return e.net.Latency(int(from), int(to), size)
}

// deliverAfter runs deliver after lat if node to is alive then, and
// onDrop, if any, if it is not. It allocates nothing: the message
// takes a slot of inflight, and its timer a slot of the engine's.
func (e *Env) deliverAfter(lat sim.Time, to overlay.NodeID, deliver, onDrop func()) {
	var i int32
	if n := len(e.idle); n > 0 {
		i, e.idle = e.idle[n-1], e.idle[:n-1]
	} else {
		i = int32(len(e.inflight))
		e.inflight = append(e.inflight, delivery{})
	}
	e.inflight[i] = delivery{deliver: deliver, onDrop: onDrop, to: to}
	e.eng.AfterArg(lat, i, e.land)
}

// arrive delivers or drops message i and frees its slot.
func (e *Env) arrive(i int32) {
	d := e.inflight[i]
	e.inflight[i] = delivery{}
	e.idle = append(e.idle, i)
	if e.Alive(d.to) {
		d.deliver()
	} else if d.onDrop != nil {
		d.onDrop()
	}
}

// Join adds the next node: it joins the overlay, takes its latency
// model slot and goes alive. A refused overlay join changes nothing.
func (e *Env) Join() (overlay.NodeID, error) {
	id := e.next
	if e.nw != nil {
		if _, err := e.nw.Join(id); err != nil {
			return 0, err
		}
	}
	e.next++
	if e.net != nil {
		if idx := e.net.AddNode(); idx != int(id) {
			panic(fmt.Sprintf("simenv: netmodel index %d diverged from node id %d", idx, id))
		}
	}
	for int(id) >= len(e.alive) {
		e.alive = append(e.alive, false)
	}
	e.alive[id] = true
	e.ids = append(e.ids, id) // ids only grow, so the list stays ascending
	return id, nil
}

// Leave takes an alive node down: it leaves the overlay, then the
// alive set. An overlay that refuses (its last node) keeps the node
// alive and returns the refusal.
func (e *Env) Leave(id overlay.NodeID) error {
	if !e.Alive(id) {
		return fmt.Errorf("simenv: node %d not alive", id)
	}
	if e.nw != nil {
		if _, err := e.nw.Leave(id); err != nil {
			return err
		}
	}
	e.alive[id] = false
	if e.stale++; 2*e.stale > len(e.ids) {
		e.compact()
	}
	return nil
}

// SeedNextID advances the id sequence to next without materializing
// the nodes in between, extending the latency model by exactly the
// slots the skipped joins would have taken, so its RNG stream stays
// aligned with a live history. Checkpoint restore uses it to skip
// dead ids (serve.Backend).
func (e *Env) SeedNextID(next overlay.NodeID) error {
	if next < e.next {
		return fmt.Errorf("simenv: seed id %d below next id %d", next, e.next)
	}
	if e.net != nil {
		for e.net.Nodes() < int(next) {
			e.net.AddNode()
		}
	}
	e.next = next
	return nil
}
