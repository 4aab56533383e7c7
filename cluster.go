package pidcan

import (
	"fmt"
	"slices"

	"pidcan/internal/core"
	"pidcan/internal/netmodel"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/simenv"
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
	*world
	cfg   ClusterConfig
	p     *core.PIDCAN
	avail []Vec // by NodeID: nil unless alive, so a departed id costs 24 B
}

// world is the simulated host a Cluster runs on, embedded under an
// unexported name so the host is not an exported field of the public
// type.
type world = simenv.Env

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
	w, err := simenv.New(cfg.Seed, cfg.Nodes, dims, cfg.CMax, &cfg.Net)
	if err != nil {
		return nil, err
	}
	c := &Cluster{world: w, cfg: cfg, avail: make([]Vec, cfg.Nodes)}
	dim := cfg.CMax.Dim()
	rows := make([]float64, cfg.Nodes*dim) // the initial nodes' rows, one array
	for id := range c.avail {
		c.avail[id] = rows[id*dim : (id+1)*dim : (id+1)*dim]
	}
	if c.p, err = core.New(c, cfg.Core); err != nil {
		return nil, err
	}
	c.p.Start()
	return c, nil
}

// Availability implements proto.Env.
func (c *Cluster) Availability(id NodeID) Vec {
	if c.Alive(id) {
		return c.avail[id].Clone()
	}
	return vector.New(c.cfg.CMax.Dim())
}

// --- public cluster API -------------------------------------------------------

// Nodes returns the alive node IDs in ascending order, in a slice of
// the caller's own (AliveNodes is the shared one).
func (c *Cluster) Nodes() []NodeID { return slices.Clone(c.AliveNodes()) }

// Now returns the cluster's simulation clock.
func (c *Cluster) Now() Time { return c.Engine().Now() }

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
	c.Engine().Run(c.Now() + d)
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
	eng := c.Engine()
	deadline := eng.Now() + 10*sim.Minute
	for !resolved && eng.Now() < deadline && eng.Step() {
	}
	if !resolved {
		return nil, 0, fmt.Errorf("pidcan: %s from %d did not resolve", what, from)
	}
	return out.Candidates, out.Hops, nil
}

// Join adds a new node to the cluster and returns its ID.
func (c *Cluster) Join() (NodeID, error) {
	id, err := c.world.Join()
	if err != nil {
		return 0, err
	}
	for int(id) >= len(c.avail) {
		c.avail = append(c.avail, nil)
	}
	c.avail[id] = vector.New(c.cfg.CMax.Dim())
	c.p.NodeJoined(id)
	return id, nil
}

// Leave removes a node; its cached records and indexes die with it.
func (c *Cluster) Leave(id NodeID) error {
	if !c.Alive(id) {
		return fmt.Errorf("pidcan: node %d not in cluster", id)
	}
	if err := c.world.Leave(id); err != nil {
		return err // refused (the last node): the node stays
	}
	c.avail[id] = nil
	c.p.NodeLeft(id)
	return nil
}

// Metrics exposes the cluster's message counters.
func (c *Cluster) Metrics() *Recorder { return c.Recorder() }
