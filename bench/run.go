package bench

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
)

// Options selects and sizes one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is the measured window (on the wire workload: two thirds
	// closed phase, one third paced phase).
	Seconds float64
	// Trace runs the traced variant: odd slices of the window record
	// spans and replay samples layer by layer, and the layer probes
	// run after it.
	Trace bool
	// Smoke runs at 1/50 of the populations and rates — a wiring
	// check, not a measurement.
	Smoke   bool
	Clients int
	OutDir  string
	Commit  string

	corrupt bool // test hook: falsify one response so the referee must object
}

// maxRefs caps the responses kept for the brute-force check: each
// costs a scan of the whole population after the window.
const maxRefs = 256

// probeStream is the generator stream of the scan probe, an index no
// caller has.
const probeStream = 1 << 20

// smokeScale divides populations, profile counts and the paced rate.
const smokeScale = 50

// DefaultClients is the caller count: one per core up to four. More
// callers than cores would measure the scheduler, not the system.
func DefaultClients() int { return min(runtime.NumCPU(), 4) }

// run is the state of one workload's run.
type run struct {
	o       Options
	sp      spec
	clock   clock
	sys     *system
	callers []*caller
	conns   []*wire.Client
	rp      *replayer
	tmp     string
	res     *Result
	v       map[string]float64
	probeNs int // iterations of the layer probes
	idle    time.Duration
}

// Run measures one workload and returns its result. A referee
// violation or failed operation is reported in the result (Correct
// false); an error means the run itself could not be completed.
func Run(o Options) (*Result, error) {
	sp, ok := findSpec(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Clients > runtime.NumCPU() {
		return nil, fmt.Errorf("%d clients on %d cores: the generator would compete with itself", o.Clients, runtime.NumCPU())
	}
	if o.Clients < 1 || o.Seconds <= 0 {
		return nil, fmt.Errorf("need at least one client and a positive window, got %d and %gs", o.Clients, o.Seconds)
	}
	r := &run{o: o, sp: sp, v: map[string]float64{}, probeNs: 20_000, idle: 2 * time.Second}
	if o.Smoke {
		r.sp.perShard = max(sp.perShard/smokeScale, 2)
		r.sp.profiles /= smokeScale
		r.sp.paced /= smokeScale
		r.probeNs /= smokeScale
		r.idle /= smokeScale
	}
	r.res = &Result{
		Workload: sp.name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		Env:    environment(o.Commit, o.Clients),
		Values: r.v, Timings: map[string]Timing{},
	}
	var err error
	if r.tmp, err = tmpRoot(o.OutDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)
	if err := r.measure(); err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	return r.res, nil
}

// setUp builds the system repeatedly and reports the median set-up
// time: one build is a single sample of allocator and scheduler luck,
// and set-up time is a metric later changes are held to. The last
// system built is the one measured.
func (r *run) setUp() error {
	budget, atLeast, atMost := 1500*time.Millisecond, 3, 15
	if r.o.Smoke {
		budget, atLeast = 0, 2
	}
	var took []float64
	for began := time.Now(); ; {
		if r.sys != nil {
			if err := r.sys.close(); err != nil {
				return fmt.Errorf("tear down between set-ups: %w", err)
			}
			runtime.GC() // the next build must not inherit this one's garbage
		}
		start := time.Now()
		sys, err := newSystem(r.sp, r.o.Seed, r.tmp)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if r.sp.wire {
			for range r.o.Clients {
				cl, err := wire.Dial(sys.wireAddr)
				if err != nil {
					r.closeConns()
					return errors.Join(fmt.Errorf("set-up: %w", err), sys.close())
				}
				r.conns = append(r.conns, cl)
			}
		}
		took = append(took, time.Since(start).Seconds())
		r.sys = sys
		if n := len(took); n >= atMost || (n >= atLeast && time.Since(began) >= budget) {
			break
		}
		r.closeConns()
	}
	r.v["setup_s"] = median(took)
	return nil
}

func (r *run) closeConns() {
	for _, cl := range r.conns {
		cl.Close()
	}
	r.conns = nil
}

// newCallers deals the initial nodes round-robin to the callers.
func (r *run) newCallers() {
	nodes := r.sys.eng.Nodes()
	profiles := [][]float64(nil)
	if r.sp.profiles > 0 {
		profiles = demandProfiles(r.o.Seed, r.sp.profiles, r.sys.cfg.CMax)
	}
	n := r.o.Clients
	for i := range n {
		c := &caller{
			clock: r.clock, sp: r.sp, cmax: r.sys.cfg.CMax,
			acked: map[uint64][]float64{}, left: map[uint64]bool{},
			// Pure reads never change the records, so sampled answers
			// can wait for a brute-force check after the window.
			keepRefs: r.sp.mix == mix{},
			refs:     make([]refSample, 0, maxRefs/n),
			corrupt:  r.o.corrupt && i == 0,
		}
		for j := i; j < len(nodes); j += n {
			c.owned = append(c.owned, uint64(nodes[j]))
		}
		c.gen = newOpStream(r.o.Seed, i, r.sp.mix, c.cmax, len(c.owned), profiles)
		r.callers = append(r.callers, c)
	}
}

// drive runs every caller's closed loop over w and waits for them.
func (r *run) drive(w *window) error {
	errs := make([]error, len(r.callers))
	var wg sync.WaitGroup
	for i, c := range r.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.sp.wire {
				errs[i] = c.driveWire(r.conns[i], w)
			} else {
				c.driveEngine(r.sys.eng, w)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drivePaced runs the open phase over w at the workload's fixed rate,
// dealt evenly to the connections, and records generator health.
func (r *run) drivePaced(w *window) error {
	const tick = int64(time.Millisecond)
	perTick := r.sp.paced / 1000
	n := len(r.callers)
	errs := make([]error, n)
	totals, lates := make([]int, n), make([]int, n)
	var wg sync.WaitGroup
	for i, c := range r.callers {
		p := pacer{start: w.start, tick: tick, perTick: perTick / n}
		if i < perTick%n {
			p.perTick++
		}
		if p.perTick == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			totals[i], lates[i], errs[i] = c.drivePaced(r.conns[i], w, p)
		}()
	}
	wg.Wait()
	total, late := 0, 0
	for i := range n {
		total += totals[i]
		late += lates[i]
	}
	r.v["loadgen.late_share"] = ratio(float64(late), float64(total))
	return errors.Join(errs...)
}

func (r *run) window(d time.Duration, record bool) *window {
	start := r.clock.now()
	return &window{start: start, end: start + int64(d), record: record, trace: record && r.o.Trace}
}

// counters is what the layers count, read before and after the window.
type counters struct {
	st   serve.Stats
	wire serve.WireStats
	mem  runtime.MemStats
	cpu  float64
}

func (r *run) counters() counters {
	c := counters{st: r.sys.eng.Stats(), cpu: cpuSeconds()}
	if r.sys.ws != nil {
		c.wire = r.sys.ws.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// sampleGauges polls, every 100 ms until stop closes, the gauges that
// have no counter: the deepest shard write queue and the follower's
// lag. Traced runs only — it is one more goroutine on the same cores.
func (r *run) sampleGauges(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, s := range r.sys.eng.Stats().Shards {
				r.v["shard.queue_depth_max"] = max(r.v["shard.queue_depth_max"], float64(s.QueueDepth))
			}
			if f := r.sys.follower(); f != nil {
				r.v["repl.lag_records_max"] = max(r.v["repl.lag_records_max"], float64(f.Stats().ReplLagRecords))
			}
		}
	}
}

func (r *run) measure() (err error) {
	if err := r.setUp(); err != nil {
		return err
	}
	defer func() {
		r.closeConns()
		err = errors.Join(err, r.sys.close())
	}()
	r.clock = clock{base: time.Now()}
	r.newCallers()
	if r.o.Trace {
		var buildNs float64
		if r.rp, buildNs, err = newReplayer(r.sys, r.sp, r.o.Seed, r.tmp); err != nil {
			return fmt.Errorf("shadow layers: %w", err)
		}
		defer func() { err = errors.Join(err, r.rp.close()) }()
		r.v["index.build_ns"] = buildNs
		for i, c := range r.callers {
			c.tr, c.rp = newTracer(i), r.rp
		}
	}

	// The wire workload's window is two thirds closed loop (every
	// end-to-end metric comes from it) and one third paced.
	measured := time.Duration(r.o.Seconds * float64(time.Second))
	pacedFor := measured / 3
	if r.sp.wire {
		measured -= pacedFor
	}
	// Warm-up lets the adaptive cache settle and the shards' simulated
	// clocks leave their start-up transient; it is capped so a short
	// run still spends most of its time measuring.
	warm := min(3*time.Second, measured/5)
	if err := r.drive(r.window(warm, false)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.v["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	var stop, sampled chan struct{}
	if r.o.Trace {
		stop, sampled = make(chan struct{}), make(chan struct{})
		go r.sampleGauges(stop, sampled)
	}
	before := r.counters()
	w := r.window(measured, true)
	err = r.drive(w)
	after := r.counters()
	if r.o.Trace {
		close(stop)
		<-sampled
	}
	if err != nil {
		return fmt.Errorf("measured window: %w", err)
	}
	r.closedLoopMetrics(w, before, after)
	if r.sp.wire {
		if err := r.drivePaced(r.window(pacedFor, true)); err != nil {
			return fmt.Errorf("paced phase: %w", err)
		}
	}
	if err := r.referee(); err != nil {
		return err
	}
	if err := r.probeScanned(); err != nil {
		return err
	}
	if r.o.Trace {
		if err := r.probeLayers(); err != nil {
			return err
		}
	}
	r.bypassChecks(before, after)
	return r.finish()
}

// closedLoopMetrics turns the window's samples and counter deltas
// into metrics.
func (r *run) closedLoopMetrics(w *window, before, after counters) {
	var lat [classes][][]int64
	var perSlice [nSlices]float64
	ops := 0.0
	for _, c := range r.callers {
		for k := range lat {
			lat[k] = append(lat[k], c.lat[k])
		}
		for s, n := range c.perSlice {
			perSlice[s] += float64(n)
			ops += float64(n)
		}
	}
	// Throughput is the median slice's, so one stalled slice (a
	// neighbour on the shared host, a long GC) does not move it. In a
	// traced run the even slices are the untraced reference.
	sliceSec := float64(w.end-w.start) / nSlices / 1e9
	var plain, traced []float64
	for s, n := range perSlice {
		if r.o.Trace && s%2 == 1 {
			traced = append(traced, n/sliceSec)
		} else {
			plain = append(plain, n/sliceSec)
		}
	}
	r.v["ops_per_s"] = median(plain)
	r.res.SliceOpsPerS = perSlice[:]
	for s := range r.res.SliceOpsPerS {
		r.res.SliceOpsPerS[s] /= sliceSec
	}
	if r.o.Trace {
		r.v["loadgen.trace_overhead_share"] = 1 - ratio(median(traced), r.v["ops_per_s"])
	}
	q, wr := summarize(lat[classQuery], 1e3), summarize(lat[classWrite], 1e3)
	r.res.Timings["query_us"], r.res.Timings["write_us"] = q, wr
	r.v["query_p50_us"], r.v["query_p99_us"] = q.P50, q.Tail
	r.v["write_p50_us"], r.v["write_p99_us"] = wr.P50, wr.Tail
	r.v["loadgen.samples_query"], r.v["loadgen.samples_write"] = float64(q.N), float64(wr.N)
	r.v["loadgen.clients"] = float64(r.o.Clients)

	a, b := after.st, before.st
	r.v["index.delta_builds"] = float64(a.IndexDeltaBuilds - b.IndexDeltaBuilds)
	r.v["index.full_builds"] = float64(a.IndexBuilds - b.IndexBuilds)
	r.v["index.reuses"] = float64(a.IndexReuses - b.IndexReuses)
	lookups := float64(a.CacheHits + a.CacheMisses - b.CacheHits - b.CacheMisses)
	r.v["cache.hit_rate"] = ratio(float64(a.CacheHits-b.CacheHits), lookups)
	r.v["cache.stale_share"] = ratio(float64(a.CacheStale-b.CacheStale), lookups)
	r.v["cache.rotations"] = float64(a.CacheResets - b.CacheResets)
	r.v["cache.adaptions"] = float64(a.CacheAdaptions - b.CacheAdaptions)
	batches, applied := 0.0, 0.0
	for i := range a.Shards {
		batches += float64(a.Shards[i].Batches - b.Shards[i].Batches)
		applied += float64(a.Shards[i].OpsApplied - b.Shards[i].OpsApplied)
	}
	r.v["shard.batches"] = batches
	r.v["shard.ops_per_batch"] = ratio(applied, batches)
	r.v["wal.bytes_per_write"] = ratio(float64(a.LogBytes-b.LogBytes), float64(a.LogRecords-b.LogRecords))
	r.v["wal.records"] = float64(a.LogRecords - b.LogRecords)
	r.v["wal.errors"] = float64(a.LogErrors - b.LogErrors)
	r.v["wire.requests"] = float64(after.wire.Requests - before.wire.Requests)
	r.v["wire.rejected"] = float64(after.wire.Rejected - before.wire.Rejected)
	r.v["runtime.alloc_bytes_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops)
	r.v["runtime.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	r.v["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	r.v["runtime.gc_pause_total_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	r.v["runtime.cpu_s_per_kop"] = ratio(after.cpu-before.cpu, ops/1000)
}

// violation records a referee finding made outside the callers.
func (r *run) violation(n int, err error) {
	if n > 0 {
		r.res.Failed += int64(n)
		if r.res.FirstError == "" {
			r.res.FirstError = err.Error()
		}
	}
}

// referee checks, once the callers are quiet, what could not be
// checked response by response: the sampled answers of a pure-read
// workload against a brute-force scan, and after writes that every
// acknowledged write is what the primary, the drained follower and an
// engine recovered from a copy of the data directory hold.
func (r *run) referee() error {
	snaps := snapshots(r.sys.eng)
	for _, c := range r.callers {
		for _, ref := range c.refs {
			c.attempted++
			if err := sameCands(ref.got, bruteForce(snaps, ref.demand, queryK, c.cmax)); err != nil {
				c.fail(fmt.Errorf("query %v: %w", ref.demand, err))
			}
		}
	}
	if r.sp.mix == (mix{}) {
		return nil
	}
	acked, left, nodes := map[uint64][]float64{}, map[uint64]bool{}, r.sp.perShard*shards
	for _, c := range r.callers {
		for id, v := range c.acked {
			acked[id] = v
		}
		for id := range c.left {
			left[id] = true
		}
		nodes += c.grown
	}
	primary := stateOf(r.sys.eng)
	lost, first := checkAcked(primary, acked, left, nodes)
	r.violation(lost, fmt.Errorf("primary lost acknowledged writes: %w", first))
	if !r.sp.durable {
		return nil
	}
	start := time.Now()
	if err := r.sys.drainFollower(); err != nil {
		r.violation(1, err)
	}
	r.v["repl.drain_ms"] = float64(time.Since(start)) / 1e6
	diff, first := sameState(primary, stateOf(r.sys.follower()))
	r.violation(diff, fmt.Errorf("follower differs from primary: %w", first))
	if diff == 0 {
		r.v["repl.follower_converged"] = 1
	}
	rec, took, err := r.sys.recoverCopy(r.o.Seed, r.tmp)
	if err != nil {
		return fmt.Errorf("recover from a copy of the data dir: %w", err)
	}
	r.v["wal.recovery_ms"] = float64(took) / 1e6
	diff, first = sameState(primary, stateOf(rec))
	r.violation(diff, fmt.Errorf("recovered engine differs from primary: %w", first))
	return rec.Close()
}

// probeScanned counts the records the index visits per search over a
// fixed set of uncached queries from a generator of its own. How many
// operations a timed window completes varies from run to run, so a
// count taken over the window would not repeat; this one depends only
// on the seed wherever no write changed the population, which makes it
// the count a later change may claim on.
func (r *run) probeScanned() error {
	gen := newOpStream(r.o.Seed, probeStream, mix{}, r.sys.cfg.CMax, 0, r.callers[0].gen.profiles)
	before := r.sys.eng.Stats()
	for range r.probeNs / 10 {
		if _, err := r.sys.eng.Query(serve.QueryRequest{Demand: gen.demand(), K: queryK, NoCache: true}); err != nil {
			return fmt.Errorf("scan probe: %w", err)
		}
	}
	after := r.sys.eng.Stats()
	r.v["index.scanned_per_query"] = ratio(float64(after.IndexScannedRecords-before.IndexScannedRecords),
		float64(after.IndexSearches-before.IndexSearches))
	r.v["index.scanned_share"] = ratio(r.v["index.scanned_per_query"], float64(after.TotalNodes))
	return nil
}

// probeLayers runs, after the window, the per-layer measurements that
// need the system to themselves.
func (r *run) probeLayers() error {
	r.v["backend.idle_cpu_share"] = idleCPUShare(r.idle)
	if !r.sp.wire {
		return nil
	}
	c := r.callers[0]
	var err error
	if r.v["wire.encode_ns"], r.v["wire.decode_ns"], err = probeCodec(r.sys.eng, c.gen.demand(), r.probeNs); err != nil {
		return err
	}
	rt, err := probeRoundTrip(r.sys.wireAddr, c.gen.profiles, max(r.probeNs/10, 100))
	if err != nil {
		return err
	}
	r.v["wire.roundtrip_us"] = rt / 1e3
	r.v["cache.hit_ns"], r.v["cache.miss_ns"], err = probeCache(c, r.sys.eng, max(r.probeNs/5, 100))
	return err
}

// bypassChecks fails a mis-wired workload instead of letting it
// report: each layer a workload is meant to bypass must have counted
// nothing over the window, and each it is meant to exercise, something.
func (r *run) bypassChecks(before, after counters) {
	a, b := after.st, before.st
	used := map[string]bool{
		"cache lookups":  a.CacheHits+a.CacheMisses > b.CacheHits+b.CacheMisses,
		"wal records":    a.LogRecords > 0 || a.LogBytes > 0,
		"wire requests":  after.wire.Requests > 0,
		"follower links": a.ReplFollowers > 0,
	}
	want := map[string]bool{
		"cache lookups":  r.sp.cached,
		"wal records":    r.sp.durable,
		"wire requests":  r.sp.wire,
		"follower links": r.sp.durable,
	}
	for what, w := range want {
		if used[what] != w {
			r.violation(1, fmt.Errorf("mis-wired workload: %s used=%v, want %v", what, used[what], w))
		}
	}
}

// finish totals the callers, derives the span metrics and writes the
// result files.
func (r *run) finish() error {
	res := r.res
	var paced [][]int64
	var spans []Span
	for _, c := range r.callers {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != nil && res.FirstError == "" {
			res.FirstError = c.firstErr.Error()
		}
		paced = append(paced, c.paced)
		if c.tr != nil {
			spans = append(spans, c.tr.spans...)
		}
	}
	res.Correct = res.Failed == 0
	r.v["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
	if p := summarize(paced, 1e3); p.N > 0 {
		res.Timings["paced_us"] = p
		r.v["paced_p50_us"], r.v["paced_p99_us"] = p.P50, p.Tail
	}
	if r.o.Trace {
		r.spanMetrics(spans)
		n, err := writeSpans(resultPath(r.o.OutDir, r.sp.name, r.o.Seed, true, "spans.jsonl"), spans)
		if err != nil {
			return err
		}
		res.SpansWritten = n
	}
	return writeResult(resultPath(r.o.OutDir, r.sp.name, r.o.Seed, r.o.Trace, "json"), res)
}

// spanMetrics derives the per-layer timings from the traced slices'
// spans.
func (r *run) spanMetrics(spans []Span) {
	sum := summarizeSpans(spans)
	r.res.Spans = sum
	r.v["index.search_ns"] = sum["index.search"].MedianNs
	r.v["engine.rank_ns"] = sum["engine.rank"].MedianNs
	r.v["index.update_ns"] = sum["index.update"].MedianNs
	r.v["backend.set_avail_us"] = sum["backend.set_avail"].MedianNs / 1e3
	r.v["backend.step_us"] = sum["backend.step"].MedianNs / 1e3
	r.v["wal.append_us"] = sum["wal.append"].MedianNs / 1e3
	r.v["wal.sync_us"] = sum["wal.sync"].MedianNs / 1e3
	r.v["engine.query_self_ns"] = medianNs(attribute(spans, "engine.query", "index.search"))
	r.v["shard.write_self_us"] = medianNs(attribute(spans, "engine.update",
		"backend.set_avail", "backend.step", "index.update", "wal.append", "wal.sync")) / 1e3
	if r.rp.reads > 0 {
		r.v["engine.candidates_per_query"] = float64(r.rp.merged) / float64(r.rp.reads)
		r.v["engine.useful_candidate_share"] = ratio(queryK, r.v["engine.candidates_per_query"])
	}
}
