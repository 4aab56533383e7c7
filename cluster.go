package pidcan

import (
	"fmt"

	"pidcan/internal/core"
	"pidcan/internal/metrics"
	"pidcan/internal/netmodel"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// ClusterConfig parameterizes a standalone PID-CAN cluster.
type ClusterConfig struct {
	// Nodes is the initial population (>= 2).
	Nodes int
	// CMax scales resource vectors into the CAN space; its length
	// sets the dimensionality. Defaults to the paper's Table-I cmax.
	CMax Vec
	// Seed drives all randomness.
	Seed uint64
	// Core tunes the protocol (defaults to the paper's setting).
	Core CoreConfig
	// Net is the LAN/WAN model (defaults to Table I).
	Net netmodel.Config
}

// Cluster is PID-CAN as a reusable component: an in-process,
// deterministically simulated set of nodes that publish availability
// vectors and answer best-fit multi-dimensional range queries. It is
// the library surface for embedding the paper's index outside the
// full cloud simulation (see examples/rangequery).
//
// A Cluster is single-goroutine: drive it with Step and the
// synchronous query helpers.
type Cluster struct {
	cfg   ClusterConfig
	eng   *sim.Engine
	rng   *sim.RNG
	net   *netmodel.Model
	nw    *overlay.Network
	p     *core.PIDCAN
	rec   *metrics.Recorder
	avail []Vec // by NodeID: nil unless alive, so a departed id costs 24 B
	next  NodeID
}

var _ proto.Env = (*Cluster)(nil)

// NewCluster builds and starts a cluster: all nodes join the overlay
// and the protocol's periodic machinery is installed. Call Step to
// let state updates and index diffusion run before querying.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("pidcan: cluster needs >= 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.CMax == nil {
		cfg.CMax = CMax()
	}
	if !cfg.CMax.IsNonNegative() || cfg.CMax.Sum() == 0 {
		return nil, fmt.Errorf("pidcan: invalid CMax %v", cfg.CMax)
	}
	if cfg.Core.L == 0 { // zero value: take the paper defaults
		cfg.Core = core.Default()
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	if cfg.Net.LANSize == 0 {
		cfg.Net = netmodel.Default()
	}
	dims := cfg.CMax.Dim()
	if cfg.Core.VirtualDim {
		dims++
	}
	c := &Cluster{
		cfg:   cfg,
		eng:   sim.New(),
		rng:   sim.NewRNG(cfg.Seed, sim.StreamProtocol),
		rec:   metrics.NewRecorder(),
		avail: make([]Vec, cfg.Nodes),
	}
	c.net = netmodel.New(cfg.Net, cfg.Nodes, sim.NewRNG(cfg.Seed, sim.StreamNetwork))
	c.nw = overlay.New(dims, 0, sim.NewRNG(cfg.Seed, sim.StreamOverlay))
	c.nw.Grow(cfg.Nodes - 1)
	for i := 0; i < cfg.Nodes; i++ {
		id := NodeID(i)
		if i > 0 {
			if _, err := c.nw.Join(id); err != nil {
				return nil, err
			}
		}
		c.avail[id] = vector.New(cfg.CMax.Dim())
	}
	c.next = NodeID(cfg.Nodes)
	p, err := core.New(c, cfg.Core)
	if err != nil {
		return nil, err
	}
	c.p = p
	p.Start()
	return c, nil
}

// --- proto.Env --------------------------------------------------------------

// Engine implements proto.Env.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// ProtoRNG implements proto.Env.
func (c *Cluster) ProtoRNG() *sim.RNG { return c.rng }

// Overlay implements proto.Env.
func (c *Cluster) Overlay() *overlay.Network { return c.nw }

// CMax implements proto.Env.
func (c *Cluster) CMax() Vec { return c.cfg.CMax }

// Alive implements proto.Env.
func (c *Cluster) Alive(id NodeID) bool {
	return id >= 0 && int(id) < len(c.avail) && c.avail[id] != nil
}

// AliveNodes implements proto.Env.
func (c *Cluster) AliveNodes() []NodeID {
	out := make([]NodeID, 0, c.Size())
	for id, a := range c.avail {
		if a != nil {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Availability implements proto.Env.
func (c *Cluster) Availability(id NodeID) Vec {
	if c.Alive(id) {
		return c.avail[id].Clone()
	}
	return vector.New(c.cfg.CMax.Dim())
}

// Send implements proto.Env using the LAN/WAN latency model.
func (c *Cluster) Send(from, to NodeID, kind MsgKind, size int, deliver func(), onDrop func()) {
	if !c.Alive(from) {
		return
	}
	c.rec.Message(kind)
	c.deliverAfter(c.net.Latency(int(from), int(to), size), to, deliver, onDrop)
}

// SendPath implements proto.Env.
func (c *Cluster) SendPath(from NodeID, path []NodeID, kind MsgKind, size int, deliver func(), onDrop func()) {
	if !c.Alive(from) || len(path) == 0 {
		return
	}
	c.rec.Messages(kind, int64(len(path)))
	var lat sim.Time
	prev := from
	for _, hop := range path {
		lat += c.net.Latency(int(prev), int(hop), size)
		prev = hop
	}
	c.deliverAfter(lat, prev, deliver, onDrop)
}

// deliverAfter runs deliver after lat if node to is alive then, and
// onDrop, if any, if it is not.
func (c *Cluster) deliverAfter(lat sim.Time, to NodeID, deliver, onDrop func()) {
	c.eng.After(lat, func() {
		if c.Alive(to) {
			deliver()
		} else if onDrop != nil {
			onDrop()
		}
	})
}

// --- public cluster API -------------------------------------------------------

// Nodes returns the alive node IDs in ascending order.
func (c *Cluster) Nodes() []NodeID { return c.AliveNodes() }

// Now returns the cluster's simulation clock.
func (c *Cluster) Now() Time { return c.eng.Now() }

// SetAvailability publishes a node's availability vector. It takes
// effect at the node's next state-update cycle; use Announce to push
// immediately.
func (c *Cluster) SetAvailability(id NodeID, avail Vec) error {
	if !c.Alive(id) {
		return fmt.Errorf("pidcan: node %d not in cluster", id)
	}
	if avail.Dim() != c.cfg.CMax.Dim() {
		return fmt.Errorf("pidcan: availability dim %d, want %d", avail.Dim(), c.cfg.CMax.Dim())
	}
	copy(c.avail[id], avail)
	return nil
}

// Announce pushes a node's current availability into the index right
// away (an out-of-cycle state update).
func (c *Cluster) Announce(id NodeID) error {
	if !c.Alive(id) {
		return fmt.Errorf("pidcan: node %d not in cluster", id)
	}
	c.p.StateUpdateNow(id)
	return nil
}

// Step advances the cluster by d of simulated time, letting state
// updates, index diffusion and in-flight messages progress.
func (c *Cluster) Step(d Time) {
	c.eng.Run(c.eng.Now() + d)
}

// Query performs one best-fit multi-dimensional range query from the
// given node: find up to k nodes whose advertised availability
// dominates demand. It drives the simulation until the query
// resolves (or the internal deadline passes) and returns the
// qualified records plus the number of messages spent.
func (c *Cluster) Query(from NodeID, demand Vec, k int) ([]Record, int, error) {
	return c.await("query", from, func(done func(proto.QueryResult)) { c.p.Query(from, demand, k, done) })
}

// RangeQueryAll performs the exhaustive INSCAN-RQ query: every
// record in the range [demand, cmax] is returned, at flooding cost.
func (c *Cluster) RangeQueryAll(from NodeID, demand Vec) ([]Record, int, error) {
	return c.await("range query", from, func(done func(proto.QueryResult)) { c.p.RangeQueryAll(from, demand, done) })
}

// await starts a query from node from and drives the simulation until
// it resolves or an internal deadline passes.
func (c *Cluster) await(what string, from NodeID, start func(done func(proto.QueryResult))) ([]Record, int, error) {
	if !c.Alive(from) {
		return nil, 0, fmt.Errorf("pidcan: node %d not in cluster", from)
	}
	var out proto.QueryResult
	resolved := false
	start(func(r proto.QueryResult) {
		out = r
		resolved = true
	})
	deadline := c.eng.Now() + 10*sim.Minute
	for !resolved && c.eng.Now() < deadline && c.eng.Step() {
	}
	if !resolved {
		return nil, 0, fmt.Errorf("pidcan: %s from %d did not resolve", what, from)
	}
	return out.Candidates, out.Hops, nil
}

// Join adds a new node to the cluster and returns its ID.
func (c *Cluster) Join() (NodeID, error) {
	id := c.next
	if _, err := c.nw.Join(id); err != nil {
		return 0, err
	}
	c.next++
	idx := c.net.AddNode()
	if idx != int(id) {
		panic("pidcan: netmodel index diverged")
	}
	for int(id) >= len(c.avail) {
		c.avail = append(c.avail, nil)
	}
	c.avail[id] = vector.New(c.cfg.CMax.Dim())
	c.p.NodeJoined(id)
	return id, nil
}

// SeedNextID advances the cluster's id sequence to next without
// materializing the nodes in between, extending the latency model by
// exactly the slots the skipped live joins would have added (so the
// model's RNG stream stays aligned with a live history). The serving
// engine's checkpoint restore uses it (serve.Backend) to skip dead
// ids, making a warm restart O(alive nodes) instead of O(lifetime
// joins).
func (c *Cluster) SeedNextID(next NodeID) error {
	if next < c.next {
		return fmt.Errorf("pidcan: seed id %d below next id %d", next, c.next)
	}
	for c.net.Nodes() < int(next) {
		c.net.AddNode()
	}
	c.next = next
	return nil
}

// Leave removes a node; its cached records and indexes die with it.
func (c *Cluster) Leave(id NodeID) error {
	if !c.Alive(id) {
		return fmt.Errorf("pidcan: node %d not in cluster", id)
	}
	if _, err := c.nw.Leave(id); err != nil {
		return err // refused (the last node): the node stays
	}
	c.avail[id] = nil
	c.p.NodeLeft(id)
	return nil
}

// Metrics exposes the cluster's message counters.
func (c *Cluster) Metrics() *Recorder { return c.rec }

// Size returns the alive population.
func (c *Cluster) Size() int { return c.nw.Size() }
