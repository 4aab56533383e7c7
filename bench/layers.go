package bench

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"syscall"
	"time"

	"pidcan"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/serve"
	"pidcan/internal/serve/index"
	"pidcan/internal/serve/wal"
	"pidcan/internal/serve/wire"
)

// replayer re-runs sampled operations of a traced run through the
// layers' public functions, one span per call, so the time of an
// engine call the benchmark cannot look inside is attributed layer by
// layer. Reads go through the live engine's snapshots. Writes go
// through shadow instances of one shard's size built during set-up: a
// cluster (the backend), a flat index over that shard's records, and
// for a durable workload a scratch op-log.
type replayer struct {
	eng   *serve.Engine
	cfg   serve.Config
	exact bool // no write races the reads: a replay must equal the engine's answer

	mu      sync.Mutex // the shadows are single-goroutine
	cluster *pidcan.Cluster
	recs    []proto.Record
	flat    *index.Flat
	log     *wal.Log

	merged, reads int64 // candidates merged over replayed reads (under mu)
}

// newReplayer builds the shadows for a workload with in-process writes. It also
// times index.Build over the shard's records (the cost of a full
// publication) and returns the median of three builds.
func newReplayer(sys *system, sp spec, seed uint64, tmp string) (*replayer, float64, error) {
	rp := &replayer{eng: sys.eng, cfg: sys.cfg, exact: sp.mix == mix{}}
	snap, err := sys.eng.Snapshot(0)
	if err != nil {
		return nil, 0, err
	}
	rp.recs = slices.Clone(snap.Records)
	var builds []float64
	for range 3 {
		start := time.Now()
		rp.flat = index.Build(rp.recs, rp.cfg.CMax)
		builds = append(builds, float64(time.Since(start)))
	}
	if sp.mix == (mix{}) || sp.wire {
		return rp, median(builds), nil // no in-process update to replay
	}
	for i, r := range rp.recs {
		if int(r.Node) != i {
			return nil, 0, fmt.Errorf("shadow index: record %d is node %d, want initial ids to be dense", i, r.Node)
		}
	}
	// Shard 0's cluster again, from the same generator state the
	// engine's factory gave it.
	rp.cluster, err = seededCluster(0, rp.cfg, rand.New(rand.NewPCG(seed, 0xbe7c4)))
	if err != nil {
		return nil, 0, err
	}
	if sp.durable {
		if rp.log, err = wal.Create(tmp+"/shadow-wal", 1, 1); err != nil {
			return nil, 0, err
		}
	}
	return rp, median(builds), nil
}

func (rp *replayer) close() error {
	if rp.log != nil {
		return rp.log.Close()
	}
	return nil
}

// read replays the snapshot read path: one index.search per shard,
// then engine.rank over the merged candidates.
func (rp *replayer) read(c *caller, opID uint64, demand []float64, got []cand) error {
	tr := c.tr
	root := tr.add(0, opID, "read.replay", c.now(), 0)
	var cands []serve.Candidate
	for i := range rp.cfg.Shards {
		snap, err := rp.eng.Snapshot(i)
		if err != nil {
			return err
		}
		t0 := c.now()
		cands, _ = snap.Search(cands, demand, rp.cfg.CMax, queryK)
		tr.add(root, opID, "index.search", t0, c.now())
	}
	merged := len(cands)
	t0 := c.now()
	ranked := serve.RankCandidates(cands, queryK)
	t1 := c.now()
	tr.add(root, opID, "engine.rank", t0, t1)
	tr.end(root, t1)
	rp.mu.Lock()
	rp.merged += int64(merged)
	rp.reads++
	rp.mu.Unlock()
	if rp.exact {
		if err := sameCands(got, candsOf(nil, ranked)); err != nil {
			return fmt.Errorf("query %v: engine answer differs from the layer-by-layer replay: %w", demand, err)
		}
	}
	return nil
}

// write replays an update of an initial node against the shadows:
// backend apply and step, index publication of a one-node dirty set,
// and (durable workloads) log append and fsync.
func (rp *replayer) write(c *caller, opID uint64, node serve.GlobalID, avail []float64) error {
	local := node.Local()
	if int(local) >= rp.cfg.NodesPerShard {
		return nil // a joined node: the shadows hold the initial population only
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	tr := c.tr
	root := tr.add(0, opID, "write.replay", c.now(), 0)
	span := func(name string, f func()) {
		t0 := c.now()
		f()
		tr.add(root, opID, name, t0, c.now())
	}
	var err error
	span("backend.set_avail", func() { err = rp.cluster.SetAvailability(local, avail) })
	if err != nil {
		return err
	}
	span("backend.step", func() { rp.cluster.Step(rp.cfg.StepQuantum) })
	// Copy-on-write of the record array is the shard's own
	// bookkeeping, so it stays outside the index span.
	recs := slices.Clone(rp.recs)
	recs[local].Avail = avail
	span("index.update", func() { rp.flat = rp.flat.Update(recs, map[overlay.NodeID]bool{local: true}) })
	rp.recs = recs
	if rp.log != nil {
		rec := wal.Record{Kind: wal.KindUpdate, Node: uint32(local), Avail: avail}
		span("wal.append", func() { err = rp.log.Append(rec) })
		if err != nil {
			return err
		}
		span("wal.sync", func() { err = rp.log.Sync() })
		if err != nil {
			return err
		}
	}
	tr.end(root, c.now())
	return nil
}

// attribute joins driver spans with the replay of the same op: for
// every op that has a span named parent and replayed children among
// names, it returns parent's duration minus the children's summed
// durations (floored at 0) — the part of the engine call the replayed
// layers do not account for.
func attribute(spans []Span, parent string, names ...string) []int64 {
	parents, kids := map[uint64]int64{}, map[uint64]int64{}
	for _, s := range spans {
		switch {
		case s.Name == parent:
			parents[s.Op] = s.dur()
		case slices.Contains(names, s.Name):
			kids[s.Op] += s.dur()
		}
	}
	var out []int64
	for op, k := range kids {
		if p, ok := parents[op]; ok {
			out = append(out, max(p-k, 0))
		}
	}
	return out
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// idleCPUShare is the process's CPU use over a stretch with no load,
// as a share of one core: what the shards' idle ticks (and a
// follower's heartbeats) cost when nobody asks anything.
func idleCPUShare(d time.Duration) float64 {
	c0, t0 := cpuSeconds(), time.Now()
	time.Sleep(d)
	return ratio(cpuSeconds()-c0, time.Since(t0).Seconds())
}

// probeCodec times the wire codec on a typical query and its
// response: ns per request encoded (query + response frames) and
// decoded.
func probeCodec(eng *serve.Engine, demand []float64, n int) (encodeNs, decodeNs float64, err error) {
	resp, err := eng.Query(serve.QueryRequest{Demand: demand, K: queryK, NoCache: true})
	if err != nil {
		return 0, 0, err
	}
	q := wire.Query{Demand: demand, K: queryK}
	var buf []byte
	start := time.Now()
	for i := range n {
		buf = wire.AppendQuery(buf[:0], uint32(i), 1, &q)
		buf = wire.AppendQueryResponse(buf, uint32(i), 1, &resp)
	}
	encodeNs = float64(time.Since(start)) / float64(n)
	qframe := wire.AppendQuery(nil, 1, 1, &q)
	rframe := wire.AppendQueryResponse(nil, 1, 1, &resp)
	var dq wire.Query
	var dr wire.QueryResult
	start = time.Now()
	for range n {
		if err := wire.DecodeQuery(qframe[wire.HeaderSize:], &dq); err != nil {
			return 0, 0, err
		}
		if err := wire.DecodeQueryResponse(rframe[wire.HeaderSize:], &dr); err != nil {
			return 0, 0, err
		}
	}
	decodeNs = float64(time.Since(start)) / float64(n)
	return encodeNs, decodeNs, nil
}

// probeRoundTrip is the median depth-1 query round trip over a fresh
// connection, in ns.
func probeRoundTrip(addr string, profiles [][]float64, n int) (float64, error) {
	cl, err := wire.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	q := wire.Query{K: queryK}
	var res wire.QueryResult
	lat := make([]int64, 0, n)
	for i := range n {
		q.Demand = profiles[i%len(profiles)]
		start := time.Now()
		if err := cl.Query(&q, &res); err != nil {
			return 0, fmt.Errorf("round-trip probe: %w", err)
		}
		lat = append(lat, int64(time.Since(start)))
	}
	return medianNs(lat), nil
}

// probeCache times in-process cacheable queries over the popular
// profiles and splits them by whether the cache answered, recording
// one engine.query span each.
func probeCache(c *caller, eng *serve.Engine, n int) (hitNs, missNs float64, err error) {
	var hit, miss []int64
	for range n {
		demand := c.gen.demand()
		t0 := c.now()
		resp, err := eng.Query(serve.QueryRequest{Demand: demand, K: queryK})
		t1 := c.now()
		if err != nil {
			return 0, 0, fmt.Errorf("cache probe: %w", err)
		}
		c.opSeq++
		c.tr.add(0, c.tr.owner|c.opSeq, "engine.query", t0, t1)
		if resp.Cached {
			hit = append(hit, t1-t0)
		} else {
			miss = append(miss, t1-t0)
		}
	}
	return medianNs(hit), medianNs(miss), nil
}
