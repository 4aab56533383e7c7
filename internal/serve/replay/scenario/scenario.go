// Package scenario is the CI corpus of named replay scenarios. Each
// generator scripts a traffic pattern the serving stack must survive
// — a flash crowd, correlated shard/member death, demand-vector
// drift, a read-write phase shift, follower lag under a write burst —
// and compiles it into a capture trace plus the invariant set the
// replay must satisfy. Compilation is recording: the script drives a
// fresh engine sequentially with a synchronous capture sink attached,
// so the emitted trace is a real engine's answer to the pattern and
// replays bit-deterministically (same header ⇒ same initial state ⇒
// same join ids and digests).
package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/capture"
	"pidcan/internal/serve/replay"
	"pidcan/internal/serve/wal"
	"pidcan/internal/task"
	"pidcan/internal/vector"

	pidcan "pidcan"
)

// Scenario is one compiled corpus entry: a trace plus its contract.
type Scenario struct {
	Name        string
	Description string
	Header      capture.Header
	Events      []capture.Event
	Invariants  replay.Invariants
	Pace        replay.Pace
	// Replicated scenarios replay against a durable primary with a
	// live follower tailing it; the harness additionally asserts the
	// follower converges to the primary's exact node set and can be
	// promoted to serve afterwards.
	Replicated bool
}

// spec is a registered generator.
type spec struct {
	desc       string
	invariants replay.Invariants
	replicated bool
	script     func(d *driver)
}

var specs = map[string]spec{
	"flash-crowd": {
		desc: "steady mixed traffic, then a query burst concentrated on one hot demand region while capacity joins to absorb it",
		invariants: replay.Invariants{
			ZeroAckedWriteLoss: true,
			DigestEquivalence:  true,
			MaxImbalance:       4,
			MaxP99:             2 * time.Second,
		},
		script: flashCrowd,
	},
	"correlated-death": {
		desc: "two of four shards die mid-run (shard halt + member kill); surviving shards absorb the traffic with zero acked-write loss",
		invariants: replay.Invariants{
			ZeroAckedWriteLoss: true,
			DigestEquivalence:  true,
			MaxImbalance:       6,
		},
		script: correlatedDeath,
	},
	"demand-drift": {
		desc: "the query demand centroid drifts from light to near-saturation across three phases while availability shifts under it",
		invariants: replay.Invariants{
			ZeroAckedWriteLoss: true,
			DigestEquivalence:  true,
		},
		script: demandDrift,
	},
	"phase-shift": {
		desc: "read-heavy, then write-heavy (joins/leaves/updates), then read-heavy again — the cache/index rebuild whiplash pattern",
		invariants: replay.Invariants{
			ZeroAckedWriteLoss: true,
			DigestEquivalence:  true,
			MaxImbalance:       4,
		},
		script: phaseShift,
	},
	"follower-lag": {
		desc: "write bursts against a replicated primary while a follower tails it; the follower must converge to the exact node set and be promotable",
		invariants: replay.Invariants{
			ZeroAckedWriteLoss: true,
			DigestEquivalence:  true,
		},
		replicated: true,
		script:     followerLag,
	},
}

// Names lists the corpus, sorted.
func Names() []string {
	out := make([]string, 0, len(specs))
	for n := range specs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Build compiles the named scenario at the given seed. The same
// (name, seed) always compiles to the identical event stream.
func Build(name string, seed uint64) (*Scenario, error) {
	sp, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	hdr := capture.Header{
		Shards:        4,
		NodesPerShard: 16,
		Seed:          seed ^ 0x5eed,
		CMax:          []float64(task.CMax()),
	}
	e, err := pidcan.NewEngine(replay.EngineConfig(hdr))
	if err != nil {
		return nil, fmt.Errorf("scenario: recording engine: %w", err)
	}
	defer e.Close()
	sink := &memSink{}
	e.SetCapture(sink)
	d := &driver{
		e:    e,
		sink: sink,
		rng:  rand.New(rand.NewSource(int64(seed) ^ 0x7061747465726e)),
		cmax: vector.Vec(hdr.CMax),
		dead: map[int]bool{},
	}
	d.alive = e.Nodes()
	sp.script(d)
	e.SetCapture(nil)
	return &Scenario{
		Name:        name,
		Description: sp.desc,
		Header:      hdr,
		Events:      sink.take(),
		Invariants:  sp.invariants,
		Pace:        replay.PaceMax,
		Replicated:  sp.replicated,
	}, nil
}

// memSink is the compile-time capture sink: it collects events
// synchronously, in the exact order the sequentially driven engine
// emits them, with a synthetic monotone clock (scripts have no real
// arrival process to preserve).
type memSink struct {
	mu     sync.Mutex
	events []capture.Event
	tick   time.Duration
}

func (m *memSink) CaptureQuery(req serve.QueryRequest, resp *serve.QueryResponse, err error) {
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick += time.Millisecond
	m.events = append(m.events, capture.Event{
		Kind:       capture.EvQuery,
		At:         m.tick,
		Demand:     append([]float64(nil), req.Demand...),
		K:          req.K,
		Consistent: req.Consistent,
		NoCache:    req.NoCache,
		Cached:     resp.Cached,
		Digest:     capture.Digest(resp.Candidates),
		NCand:      len(resp.Candidates),
	})
}

func (m *memSink) CaptureMutations(shard int, recs []wal.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range recs {
		m.tick += time.Millisecond
		rec := recs[i]
		rec.Avail = append(rec.Avail[:0:0], rec.Avail...)
		m.events = append(m.events, capture.Event{
			Kind:  capture.EvMutation,
			At:    m.tick,
			Shard: shard,
			Rec:   rec,
		})
	}
}

func (m *memSink) CaptureStats() serve.CaptureStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return serve.CaptureStats{Records: uint64(len(m.events))}
}

// appendFault splices a scripted fault into the stream at the
// current position.
func (m *memSink) appendFault(k capture.FaultKind, target int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tick += time.Millisecond
	m.events = append(m.events, capture.Event{
		Kind:   capture.EvFault,
		At:     m.tick,
		Fault:  k,
		Target: target,
	})
}

func (m *memSink) take() []capture.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// driver is the script vocabulary: every call drives the recording
// engine (capture emits the event) and tracks the expected world.
type driver struct {
	e     *serve.Engine
	sink  *memSink
	rng   *rand.Rand
	cmax  vector.Vec
	alive []serve.GlobalID
	dead  map[int]bool
}

// vec draws a vector with each dimension uniform in [lo,hi]·cmax.
func (d *driver) vec(lo, hi float64) vector.Vec {
	v := vector.New(len(d.cmax))
	for i := range v {
		v[i] = (lo + (hi-lo)*d.rng.Float64()) * d.cmax[i]
	}
	return v
}

// vecAround draws a vector jittered ±jit·cmax around frac·cmax,
// clamped to [0, cmax] — the "hot region" shape flash crowds query.
func (d *driver) vecAround(frac, jit float64) vector.Vec {
	v := vector.New(len(d.cmax))
	for i := range v {
		f := frac + jit*(2*d.rng.Float64()-1)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		v[i] = f * d.cmax[i]
	}
	return v
}

// query asks through the cache: a cached answer is the uncached one,
// so the trace replays deterministically either way.
func (d *driver) query(demand vector.Vec, k int) {
	d.e.Query(serve.QueryRequest{Demand: demand, K: k})
}

// pick returns a live node on a non-halted shard (false when none).
func (d *driver) pick() (serve.GlobalID, bool) {
	for try := 0; try < 8; try++ {
		id := d.alive[d.rng.Intn(len(d.alive))]
		if !d.dead[id.Shard()] {
			return id, true
		}
	}
	return 0, false
}

func (d *driver) update(lo, hi float64) {
	if id, ok := d.pick(); ok {
		d.e.Update(id, d.vec(lo, hi), false)
	}
}

func (d *driver) join(shard int) {
	if d.dead[shard] {
		return
	}
	if id, err := d.e.JoinOn(shard, d.vec(0.4, 0.9)); err == nil {
		d.alive = append(d.alive, id)
	}
}

func (d *driver) leave() {
	if len(d.alive) <= 8 {
		return
	}
	if id, ok := d.pick(); ok {
		if d.e.Leave(id) == nil {
			for i, a := range d.alive {
				if a == id {
					d.alive = append(d.alive[:i], d.alive[i+1:]...)
					break
				}
			}
		}
	}
}

func (d *driver) fault(k capture.FaultKind, target int) {
	switch k {
	case capture.FaultHaltShard, capture.FaultKillMember:
		d.e.HaltShard(target)
		d.dead[target] = true
	}
	d.sink.appendFault(k, target)
}

// populate gives every initial node a fresh availability so queries
// have candidates (and the trace exercises the update path shard by
// shard).
func (d *driver) populate() {
	for _, id := range d.e.Nodes() {
		d.e.Update(id, d.vec(0.3, 1.0), false)
	}
}

func (d *driver) shards() int { return d.e.Shards() }

// --- the corpus ---------------------------------------------------------------

func flashCrowd(d *driver) {
	d.populate()
	for i := 0; i < 40; i++ { // steady state
		if d.rng.Float64() < 0.8 {
			d.query(d.vec(0.05, 0.3), 3)
		} else {
			d.update(0.3, 1.0)
		}
	}
	// The crowd arrives on one hot region: most of it asks a few exact
	// hot demands, which the cache answers between joins.
	hot := make([]vector.Vec, 4)
	for i := range hot {
		hot[i] = d.vecAround(0.45, 0.05)
	}
	for i := 0; i < 120; i++ {
		if i%3 == 2 {
			d.query(d.vecAround(0.45, 0.05), 5)
		} else {
			d.query(hot[d.rng.Intn(len(hot))], 5)
		}
		if i%10 == 9 { // capacity joins to absorb it, round-robin
			d.join(i / 10 % d.shards())
		}
	}
	for i := 0; i < 30; i++ { // cool-down
		d.query(d.vec(0.05, 0.3), 3)
	}
}

func correlatedDeath(d *driver) {
	d.populate()
	for i := 0; i < 40; i++ {
		switch {
		case d.rng.Float64() < 0.6:
			d.query(d.vec(0.1, 0.4), 3)
		case d.rng.Float64() < 0.5:
			d.update(0.3, 1.0)
		default:
			d.join(i % d.shards())
		}
	}
	// The correlated failure: one shard halts, a second member dies.
	d.fault(capture.FaultHaltShard, 1)
	d.fault(capture.FaultKillMember, 2)
	for i := 0; i < 80; i++ { // survivors carry the load
		switch {
		case d.rng.Float64() < 0.7:
			d.query(d.vec(0.1, 0.4), 4)
		case d.rng.Float64() < 0.5:
			d.update(0.3, 1.0)
		case d.rng.Float64() < 0.5:
			d.join(i % 2 * 3) // shards 0 and 3 survive
		default:
			d.leave()
		}
	}
}

func demandDrift(d *driver) {
	d.populate()
	for _, center := range []float64{0.15, 0.45, 0.75} {
		for i := 0; i < 60; i++ {
			d.query(d.vecAround(center, 0.1), 3)
			if i%4 == 3 { // availability shifts under the drift
				d.update(center*0.8, 1.0)
			}
		}
	}
}

func phaseShift(d *driver) {
	d.populate()
	for i := 0; i < 80; i++ { // read-heavy
		d.query(d.vec(0.1, 0.5), 3)
		if i%10 == 9 {
			d.update(0.3, 1.0)
		}
	}
	for i := 0; i < 60; i++ { // write-heavy: churn
		switch d.rng.Intn(10) {
		case 0, 1:
			d.join(i % d.shards())
		case 2:
			d.leave()
		case 3, 4, 5, 6:
			d.update(0.2, 1.0)
		default:
			d.query(d.vec(0.1, 0.5), 3)
		}
	}
	for i := 0; i < 80; i++ { // read-heavy again
		d.query(d.vec(0.1, 0.5), 3)
	}
}

func followerLag(d *driver) {
	d.populate()
	for i := 0; i < 100; i++ { // first burst: the follower falls behind
		if i%5 == 4 {
			d.join(i % d.shards())
		} else {
			d.update(0.2, 1.0)
		}
	}
	for i := 0; i < 40; i++ {
		d.query(d.vec(0.1, 0.4), 3)
	}
	for i := 0; i < 60; i++ { // second burst with churn
		switch d.rng.Intn(6) {
		case 0:
			d.join(i % d.shards())
		case 1:
			d.leave()
		default:
			d.update(0.2, 1.0)
		}
	}
}
