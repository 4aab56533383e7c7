// Package proto defines the contract between the SOC simulation glue
// (internal/cloud) and the resource-discovery protocols under test
// (internal/core, internal/gossip, internal/khdn): the environment
// interface protocols run against, the resource-record type they
// exchange, and the asynchronous query interface the task scheduler
// drives.
package proto

import (
	"math"
	"sort"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// Approximate wire sizes (bytes) for latency modelling. Control
// messages are small; found-notifications grow with the record count.
const (
	SizeStateUpdate = 200
	SizeQuery       = 256
	SizeIndex       = 64
	SizeNotify      = 128
	SizeRecord      = 64
	SizeGossip      = 96 // per view entry
	SizePlacement   = 512
)

// Record is one resource-state record: node's advertised availability
// vector with its storage time and expiry (the paper's state-update
// TTL, 600 s).
type Record struct {
	Node    overlay.NodeID
	Avail   vector.Vec
	Stored  sim.Time
	Expires sim.Time
}

// Expired reports whether the record is stale at now.
func (r Record) Expired(now sim.Time) bool { return now >= r.Expires }

// Qualifies reports whether the recorded availability dominates the
// demand (Inequality 2 against the advertised state).
func (r Record) Qualifies(demand vector.Vec) bool { return r.Avail.Dominates(demand) }

// QueryResult is the outcome of one discovery query.
type QueryResult struct {
	// Candidates are the qualified records found, at most the
	// requested count, dedup'd by node.
	Candidates []Record
	// Hops is the number of messages this query consumed.
	Hops int
}

// Env is the simulation environment a protocol runs against. Its one
// implementation is internal/simenv's, which the paper's simulation
// (internal/cloud), pidcan.Cluster and the test double
// (internal/prototest) embed, each adding Availability.
type Env interface {
	// Engine returns the shared event engine.
	Engine() *sim.Engine
	// ProtoRNG returns the protocol randomness stream.
	ProtoRNG() *sim.RNG
	// Overlay returns the CAN overlay, or nil for unstructured
	// protocols (Newscast never calls it).
	Overlay() *overlay.Network
	// CMax returns the system-wide maximum capacity vector used to
	// normalize resource amounts into the CAN space.
	CMax() vector.Vec
	// Alive reports whether the node is currently up.
	Alive(id overlay.NodeID) bool
	// AliveNodes returns the ids of all alive nodes in ascending
	// order, in a shared slice that is valid until the next join or
	// leave. Callers must not mutate it.
	AliveNodes() []overlay.NodeID
	// Availability returns the node's current true availability
	// vector (what a local probe would measure).
	Availability(id overlay.NodeID) vector.Vec
	// Send schedules delivery of one message and counts it. deliver
	// runs after the network latency if the destination is alive at
	// delivery time; otherwise onDrop runs (if non-nil) at that same
	// time — the sender's timeout path. A send from a node that is
	// already dead is silently discarded.
	Send(from, to overlay.NodeID, kind metrics.MsgKind, size int, deliver func(), onDrop func())
	// SendPath schedules a multi-hop forwarding chain along path
	// (e.g. a CAN route), counting one message per hop, with the
	// hops' latencies summed. At the end deliver runs if the final
	// node is alive then, else onDrop (if non-nil); the hops on the
	// way are not checked. A send from a dead node, or along an empty
	// path, is discarded uncounted.
	SendPath(from overlay.NodeID, path []overlay.NodeID, kind metrics.MsgKind, size int, deliver func(), onDrop func())
}

// Discovery is a resource-discovery protocol under test.
type Discovery interface {
	// Name identifies the protocol in reports ("HID-CAN", …).
	Name() string
	// Start installs the protocol's periodic behaviour (state
	// updates, index diffusion, gossip rounds) for all current
	// nodes. Called once before the simulation runs.
	Start()
	// Query asynchronously searches k qualified records for demand
	// on behalf of requester. done is invoked exactly once. The
	// query counts its own messages into the result's Hops.
	Query(requester overlay.NodeID, demand vector.Vec, k int, done func(QueryResult))
	// NodeJoined installs per-node state for a node added by churn.
	NodeJoined(id overlay.NodeID)
	// NodeLeft tears down per-node state for a departed node. Its
	// cached records and diffused indexes die with it.
	NodeLeft(id overlay.NodeID)
}

// Cache is a duty-node record store (the paper's cache γ) with TTL
// expiry. Iteration is in ascending node order so simulations remain
// deterministic (Go map order is randomized). The zero Cache is empty
// and holds nothing until its first Put.
//
// Purge and NonEmpty run on every state-update delivery and index
// diffusion round, and almost always find nothing expired: the cache
// keeps a lower bound on its records' expiries and scans only once
// that bound has passed. The map and the bound sit behind one pointer,
// so a Cache is one word wherever it is embedded.
type Cache struct {
	s *cacheSet
}

// cacheSet holds a Cache's records and their expiry bound; the first
// Put makes it.
type cacheSet struct {
	m map[overlay.NodeID]Record
	// due is at most every stored record's Expires, expired ones
	// included: before due nothing in m has expired.
	due sim.Time
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{} }

// Put stores or refreshes the record for rec.Node.
func (c *Cache) Put(rec Record) {
	if c.s == nil {
		c.s = &cacheSet{m: make(map[overlay.NodeID]Record)}
	}
	if len(c.s.m) == 0 || rec.Expires < c.s.due {
		c.s.due = rec.Expires
	}
	c.s.m[rec.Node] = rec
}

// Delete removes the record for the node, if any.
func (c *Cache) Delete(id overlay.NodeID) {
	if c.s != nil {
		delete(c.s.m, id)
	}
}

// Len returns the number of stored records, including expired ones
// not yet purged.
func (c *Cache) Len() int {
	if c.s == nil {
		return 0
	}
	return len(c.s.m)
}

// NonEmpty reports whether any unexpired record is present — the
// index-sender trigger of Algorithm 1.
func (c *Cache) NonEmpty(now sim.Time) bool {
	if c.Len() == 0 {
		return false
	}
	if now < c.s.due {
		return true
	}
	for _, r := range c.s.m {
		if !r.Expired(now) {
			return true
		}
	}
	return false
}

// Purge drops expired records.
func (c *Cache) Purge(now sim.Time) {
	if c.Len() == 0 || now < c.s.due {
		return
	}
	due := sim.Time(math.MaxInt64)
	for id, r := range c.s.m {
		if r.Expired(now) {
			delete(c.s.m, id)
		} else if r.Expires < due {
			due = r.Expires
		}
	}
	c.s.due = due
}

// sortedIDs returns the cache keys in ascending order.
func (c *Cache) sortedIDs() []overlay.NodeID {
	if c.s == nil {
		return nil
	}
	ids := make([]overlay.NodeID, 0, len(c.s.m))
	for id := range c.s.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Qualified returns up to max unexpired records whose availability
// dominates demand, in ascending node order. max <= 0 means no limit.
func (c *Cache) Qualified(demand vector.Vec, now sim.Time, max int) []Record {
	var out []Record
	for _, id := range c.sortedIDs() {
		r := c.s.m[id]
		if r.Expired(now) || !r.Qualifies(demand) {
			continue
		}
		out = append(out, r)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// QualifiedSample returns up to max unexpired qualified records,
// sampled uniformly from all matches. This is what query handlers
// use: returning a deterministic prefix would hand every concurrent
// analogous query the same candidates and manufacture exactly the
// contention the protocol's randomization is designed to avoid.
func (c *Cache) QualifiedSample(demand vector.Vec, now sim.Time, max int, rng *sim.RNG) []Record {
	all := c.Qualified(demand, now, 0)
	if max <= 0 || len(all) <= max {
		return all
	}
	return sim.Sample(rng, all, max)
}

// Records returns all unexpired records in ascending node order.
func (c *Cache) Records(now sim.Time) []Record {
	var out []Record
	for _, id := range c.sortedIDs() {
		r := c.s.m[id]
		if !r.Expired(now) {
			out = append(out, r)
		}
	}
	return out
}

// DedupeCandidates merges records by node keeping the freshest, and
// returns them sorted by node id.
func DedupeCandidates(recs []Record) []Record {
	best := make(map[overlay.NodeID]Record, len(recs))
	for _, r := range recs {
		if old, ok := best[r.Node]; !ok || r.Stored > old.Stored {
			best[r.Node] = r
		}
	}
	out := make([]Record, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
