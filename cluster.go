package pidcan

import (
	"fmt"
	"sort"

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
	live  map[NodeID]bool // alive nodes only: a departed id is deleted
	avail map[NodeID]Vec
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
		live:  make(map[NodeID]bool),
		avail: make(map[NodeID]Vec),
	}
	c.net = netmodel.New(cfg.Net, cfg.Nodes, sim.NewRNG(cfg.Seed, sim.StreamNetwork))
	c.nw = overlay.New(dims, 0, sim.NewRNG(cfg.Seed, sim.StreamOverlay))
	for i := 0; i < cfg.Nodes; i++ {
		id := NodeID(i)
		if i > 0 {
			if _, err := c.nw.Join(id); err != nil {
				return nil, err
			}
		}
		c.live[id] = true
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
func (c *Cluster) Alive(id NodeID) bool { return c.live[id] }

// AliveNodes implements proto.Env.
func (c *Cluster) AliveNodes() []NodeID {
	out := make([]NodeID, 0, len(c.live))
	for id := range c.live {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Availability implements proto.Env.
func (c *Cluster) Availability(id NodeID) Vec {
	if a, ok := c.avail[id]; ok {
		return a.Clone()
	}
	return vector.New(c.cfg.CMax.Dim())
}

// Send implements proto.Env using the LAN/WAN latency model.
func (c *Cluster) Send(from, to NodeID, kind MsgKind, size int, deliver func(), onDrop func()) {
	if !c.live[from] {
		return
	}
	c.rec.Message(kind)
	lat := c.net.Latency(int(from), int(to), size)
	c.eng.After(lat, func() {
		if c.live[to] {
			deliver()
		} else if onDrop != nil {
			onDrop()
		}
	})
}

// SendPath implements proto.Env.
func (c *Cluster) SendPath(from NodeID, path []NodeID, kind MsgKind, size int, deliver func(), onDrop func()) {
	if !c.live[from] || len(path) == 0 {
		return
	}
	c.rec.Messages(kind, int64(len(path)))
	var lat sim.Time
	prev := from
	for _, hop := range path {
		lat += c.net.Latency(int(prev), int(hop), size)
		prev = hop
	}
	final := path[len(path)-1]
	c.eng.After(lat, func() {
		if c.live[final] {
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
	if !c.live[id] {
		return fmt.Errorf("pidcan: node %d not in cluster", id)
	}
	if avail.Dim() != c.cfg.CMax.Dim() {
		return fmt.Errorf("pidcan: availability dim %d, want %d", avail.Dim(), c.cfg.CMax.Dim())
	}
	c.avail[id] = avail.Clone()
	return nil
}

// Announce pushes a node's current availability into the index right
// away (an out-of-cycle state update).
func (c *Cluster) Announce(id NodeID) error {
	if !c.live[id] {
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
	if !c.live[from] {
		return nil, 0, fmt.Errorf("pidcan: node %d not in cluster", from)
	}
	var out proto.QueryResult
	resolved := false
	c.p.Query(from, demand, k, func(r proto.QueryResult) {
		out = r
		resolved = true
	})
	deadline := c.eng.Now() + 10*sim.Minute
	for !resolved && c.eng.Now() < deadline {
		if !c.eng.Step() {
			break
		}
	}
	if !resolved {
		return nil, 0, fmt.Errorf("pidcan: query from %d did not resolve", from)
	}
	return out.Candidates, out.Hops, nil
}

// RangeQueryAll performs the exhaustive INSCAN-RQ query: every
// record in the range [demand, cmax] is returned, at flooding cost.
func (c *Cluster) RangeQueryAll(from NodeID, demand Vec) ([]Record, int, error) {
	if !c.live[from] {
		return nil, 0, fmt.Errorf("pidcan: node %d not in cluster", from)
	}
	var out proto.QueryResult
	resolved := false
	c.p.RangeQueryAll(from, demand, func(r proto.QueryResult) {
		out = r
		resolved = true
	})
	deadline := c.eng.Now() + 10*sim.Minute
	for !resolved && c.eng.Now() < deadline {
		if !c.eng.Step() {
			break
		}
	}
	if !resolved {
		return nil, 0, fmt.Errorf("pidcan: range query from %d did not resolve", from)
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
	c.live[id] = true
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
	if !c.live[id] {
		return fmt.Errorf("pidcan: node %d not in cluster", id)
	}
	delete(c.live, id)
	delete(c.avail, id)
	if _, err := c.nw.Leave(id); err != nil {
		return err
	}
	c.p.NodeLeft(id)
	return nil
}

// Metrics exposes the cluster's message counters.
func (c *Cluster) Metrics() *Recorder { return c.rec }

// Size returns the alive population.
func (c *Cluster) Size() int { return c.nw.Size() }
