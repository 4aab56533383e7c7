// Command pidcan-loadgen drives cmd/pidcan-serve with an open-loop
// arrival process and reports sustained throughput and latency
// percentiles.
//
// Open-loop means arrivals are scheduled by the target rate, not by
// response times (DEPAS-style): when the server lags, requests queue
// and latency percentiles show it — the generator never slows down
// to flatter the system under test. The report counts both shed
// sends (the dispatcher's queue was full) and late sends (a worker
// started an op more than 1ms after its scheduled arrival): a run
// with material shed or late counts was not actually offered at the
// target rate, and its percentiles undersell the backlog.
//
//	pidcan-loadgen -url http://localhost:8080 -rate 20000 -duration 10s
//	pidcan-loadgen -url http://localhost:8080 -arrivals bursty -burst 4
//
// -proto picks the serving edge: "http" posts the JSON API, "wire"
// drives the binary wire protocol (-wire host:port, the server's
// -wire-addr) over persistent pipelined connections — one
// pidcan.WireMux per worker, keeping deep bursts in flight. A rate of
// 0 runs closed-loop, which on the wire edge measures the server's
// pipelined ceiling.
//
// The traffic mix is query-dominated by default; tune with
// -mix query=90,update=6,join=2,leave=2. A -consistent fraction of
// queries routes through the PID-CAN protocol itself, each on one
// shard (round-robin on the server).
//
// -skew Z (Z > 1) zipf-concentrates joins and updates onto a few
// shards (exponent Z over the shard indexes, shard 0 hottest):
// joins carry an explicit {"shard":S} target, and updates pick
// their victim among the nodes originally homed on the skewed shard
// (ids stay valid after the server migrates a node away — the write
// then follows it, so update skew fades as rebalancing digests the
// hot shard, which is the point). Point it at a server running with
// -rebalance-interval to watch the adaptive rebalancer pull the
// max/min shard-population ratio back down — the generator prints
// the server's per-shard populations, migrations and last sampled
// imbalance after the run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pidcan"
)

type opClass int

const (
	clQuery opClass = iota
	clUpdate
	clJoin
	clLeave
	numClasses
)

var classNames = [numClasses]string{"query", "update", "join", "leave"}

type job struct {
	class opClass
	due   time.Time
}

type sample struct {
	class opClass
	lat   time.Duration
	err   bool
}

// op is one request the job loop drew; a protocol issues it.
type op struct {
	class      opClass
	t0         time.Time // latency origin
	demand     []float64 // query
	consistent bool      // query
	node       uint64    // update, leave
	avail      []float64 // update, join
	announce   bool      // update
	shard      int       // join: < 0 leaves placement to the server
}

func main() {
	var (
		baseURL  = flag.String("url", "http://localhost:8080", "pidcan-serve base URL (discovery and the http protocol)")
		proto    = flag.String("proto", "http", "serving edge to drive: http (JSON API) or wire (binary protocol; needs -wire)")
		wireTgt  = flag.String("wire", "", "wire-protocol address host:port (the server's -wire-addr; required by -proto wire)")
		rate     = flag.Float64("rate", 20000, "target arrival rate (requests/sec)")
		duration = flag.Duration("duration", 10*time.Second, "generation window")
		workers  = flag.Int("workers", 64, "concurrent request workers (wire: one pipelined connection each)")
		arrivals = flag.String("arrivals", "poisson", "arrival process: poisson|bursty|uniform")
		burst    = flag.Float64("burst", 4, "bursty mode: on-period rate multiplier")
		period   = flag.Duration("period", 500*time.Millisecond, "bursty mode: mean on/off period")
		mix      = flag.String("mix", "query=92,update=5,join=2,leave=1", "traffic mix weights")
		k        = flag.Int("k", 3, "candidates per query")
		profiles = flag.Int("profiles", 64, "distinct demand profiles (0 = every query draws a fresh random demand)")
		consist  = flag.Float64("consistent", 0, "fraction of queries routed through the PID-CAN protocol instead of the snapshot path")
		skew     = flag.Float64("skew", 0, "zipf exponent (> 1) concentrating joins and updates onto low shard indexes; 0 = uniform")
		seed     = flag.Uint64("seed", 1, "generator seed")
		router   = flag.Bool("router", false, "target is a pidcan-router: the server: line and JSON report scatter legs/query, pruned legs, and pipeline depth from its /stats")
		jsonOut  = flag.String("json", "", "also write the summary as JSON to this file")
	)
	flag.Parse()

	if *skew != 0 && *skew <= 1 {
		log.Fatalf("-skew %v: zipf exponent must be > 1 (or 0 to disable)", *skew)
	}
	if *proto != "http" && *proto != "wire" {
		log.Fatalf("unknown -proto %q (want http or wire)", *proto)
	}
	if *proto == "wire" && *wireTgt == "" {
		log.Fatal("-proto wire needs -wire host:port (the server's -wire-addr)")
	}
	weights, err := parseMix(*mix)
	if err != nil {
		log.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        *workers * 2,
		MaxIdleConnsPerHost: *workers * 2,
	}}
	// Discovery always goes over HTTP: the JSON API is the debug and
	// control surface regardless of which edge takes the load.
	cmax, shardCount, err := fetchStats(client, *baseURL)
	if err != nil {
		log.Fatalf("cannot reach %s: %v", *baseURL, err)
	}
	nodes, err := fetchNodes(client, *baseURL)
	if err != nil {
		log.Fatal(err)
	}
	// Nodes grouped by shard back the skewed-update victim pick.
	nodesByShard := make([][]uint64, shardCount)
	for _, id := range nodes {
		if s := int(id >> 32); s < shardCount {
			nodesByShard[s] = append(nodesByShard[s], id)
		}
	}
	log.Printf("target %s (proto %s): %d nodes on %d shard(s), %d dims; offering %.0f req/s (%s) for %v with %d workers",
		*baseURL, *proto, len(nodes), shardCount, len(cmax), *rate, *arrivals, *duration, *workers)
	if *skew > 1 {
		log.Printf("zipf skew %.2f: joins target explicit shards, updates hit nodes originally homed there", *skew)
	}

	rc := runCfg{
		proto: *proto, baseURL: *baseURL, wireAddr: *wireTgt,
		rate: *rate, duration: *duration, workers: *workers,
		arrivals: *arrivals, burst: *burst, period: *period,
		weights: weights, k: *k, profiles: *profiles,
		consist: *consist, skew: *skew, seed: *seed,
		client: client, cmax: cmax, nodes: nodes,
		nodesByShard: nodesByShard, shardCount: shardCount,
	}
	probe0, probeErr := fetchServerProbe(client, *baseURL)
	sum := runLoad(rc)
	if probeErr == nil {
		if probe1, err := fetchServerProbe(client, *baseURL); err == nil {
			sum.Server = probe1.diff(probe0)
			sum.Server.Router = *router
		}
	}
	report(sum, *jsonOut)
	if *skew > 1 {
		reportBalance(client, *baseURL)
	}
}

// runCfg is one load run, fully resolved: flags plus the discovered
// target shape.
type runCfg struct {
	proto    string
	baseURL  string
	wireAddr string
	rate     float64
	duration time.Duration
	workers  int
	arrivals string
	burst    float64
	period   time.Duration
	weights  [numClasses]float64
	k        int
	profiles int
	consist  float64
	skew     float64
	seed     uint64

	client       *http.Client
	cmax         []float64
	nodes        []uint64
	nodesByShard [][]uint64
	shardCount   int
}

// runState is the cross-worker shared state of one run.
type runState struct {
	mu      sync.Mutex
	samples []sample
	joined  []uint64 // nodes this run added, eligible for leave
	late    atomic.Int64
}

func (st *runState) record(local []sample) {
	st.mu.Lock()
	st.samples = append(st.samples, local...)
	st.mu.Unlock()
}

func (st *runState) pushJoined(id uint64) {
	st.mu.Lock()
	st.joined = append(st.joined, id)
	st.mu.Unlock()
}

func (st *runState) popJoined() (uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.joined) == 0 {
		return 0, false
	}
	id := st.joined[len(st.joined)-1]
	st.joined = st.joined[:len(st.joined)-1]
	return id, true
}

// holdUntilDue delays an open-loop job to its scheduled arrival and
// returns the measurement origin. Open-loop latency runs from the
// scheduled arrival, so time spent queued behind a lagging server is
// part of the measurement, as it must be; a job picked up more than
// 1ms past its arrival is counted late — the report's signal that
// the offered rate was not actually sustained.
func holdUntilDue(j job, st *runState) time.Time {
	if j.due.IsZero() {
		return time.Now()
	}
	if d := time.Until(j.due); d > 0 {
		time.Sleep(d)
	} else if -d > time.Millisecond {
		st.late.Add(1)
	}
	return j.due
}

// runLoad executes one complete load run and returns its summary.
func runLoad(rc runCfg) summary {
	// Demand profiles are drawn once: recurring demand shapes are what
	// real tenants issue, and they are what makes the server's
	// quantized query cache earn its keep.
	var demands [][]float64
	if rc.profiles > 0 {
		rng := rand.New(rand.NewPCG(rc.seed, 0xf0f))
		for i := 0; i < rc.profiles; i++ {
			demands = append(demands, randVec(rng, rc.cmax, 0, 0.6))
		}
	}

	// Open-loop arrival schedule feeding a worker pool. The queue is
	// deep so a lagging server delays service (visible as latency),
	// not arrivals; only a pathological backlog sheds load. Pacing
	// is batched: the dispatcher sleeps only once it is >1ms ahead
	// of schedule, so high rates do not burn a core on micro-sleeps.
	// A rate <= 0 means closed-loop: workers fire back to back, which
	// measures the server's ceiling instead of a fixed offered load.
	closedLoop := rc.rate <= 0
	deadline := time.Now().Add(rc.duration)
	jobs := make(chan job, 1<<16)
	var shed atomic.Int64
	go func() {
		defer close(jobs)
		rng := rand.New(rand.NewPCG(rc.seed, 0xa11))
		if closedLoop {
			for time.Now().Before(deadline) {
				for i := 0; i < 256; i++ {
					jobs <- job{class: pickClass(rng, rc.weights)} // zero due: closed loop
				}
			}
			return
		}
		next := time.Now()
		burstOn, burstFlip := true, next.Add(expDur(rng, rc.period))
		for next.Before(deadline) {
			r := rc.rate
			switch rc.arrivals {
			case "bursty":
				for !next.Before(burstFlip) {
					burstOn = !burstOn
					burstFlip = burstFlip.Add(expDur(rng, rc.period))
				}
				if burstOn {
					r *= rc.burst
				} else {
					r *= 0.1
				}
				fallthrough
			case "poisson":
				next = next.Add(expDur(rng, time.Duration(float64(time.Second)/r)))
			case "uniform":
				next = next.Add(time.Duration(float64(time.Second) / r))
			default:
				log.Fatalf("unknown arrival process %q", rc.arrivals)
			}
			if d := time.Until(next); d > time.Millisecond {
				time.Sleep(d)
			}
			j := job{class: pickClass(rng, rc.weights), due: next}
			select {
			case jobs <- j:
			default:
				shed.Add(1)
			}
		}
	}()

	st := &runState{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < rc.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runWorker(rc, w, jobs, deadline, closedLoop, demands, st)
		}(w)
	}
	wg.Wait()
	return buildSummary(rc.proto, rc.seed, st.samples, time.Since(start), rc.rate,
		int(shed.Load()), int(st.late.Load()))
}

// runWorker serves jobs: it draws each job's op and issues it over
// the run's protocol — HTTP one synchronous request at a time, wire
// over one pipelined connection with responses recorded as they
// arrive.
func runWorker(rc runCfg, w int, jobs <-chan job, deadline time.Time, closedLoop bool,
	demands [][]float64, st *runState) {
	wk := &worker{st: st}
	var is issuer = httpIssuer{rc, wk}
	if rc.proto == "wire" {
		c, err := pidcan.DialWire(rc.wireAddr)
		if err != nil {
			log.Fatalf("worker %d: dial wire %s: %v", w, rc.wireAddr, err)
		}
		is = &wireIssuer{wk: wk, m: pidcan.NewWireMux(c), q: pidcan.WireQuery{K: rc.k}}
	}
	rng := rand.New(rand.NewPCG(rc.seed, uint64(w)+0xbee))
	var zipf *rand.Zipf
	if rc.skew > 1 && rc.shardCount > 1 {
		zipf = rand.NewZipf(rng, rc.skew, 1, uint64(rc.shardCount-1))
	}
	for j := range jobs {
		if closedLoop && !time.Now().Before(deadline) {
			break
		}
		o := op{class: j.class, t0: holdUntilDue(j, st)}
		switch j.class {
		case clQuery:
			o.consistent = rc.consist > 0 && rng.Float64() < rc.consist
			if len(demands) > 0 {
				o.demand = demands[rng.IntN(len(demands))]
			} else {
				o.demand = randVec(rng, rc.cmax, 0, 0.6)
			}
		case clUpdate:
			o.node = pickUpdateNode(rc, rng, zipf)
			o.avail = randVec(rng, rc.cmax, 0.1, 1)
			o.announce = rng.IntN(4) == 0
		case clJoin:
			o.shard = -1
			if zipf != nil {
				o.shard = int(zipf.Uint64())
			}
			o.avail = randVec(rng, rc.cmax, 0.1, 1)
		case clLeave:
			id, ok := st.popJoined()
			if !ok {
				continue // nothing safe to remove yet
			}
			o.node = id
		}
		if !is.issue(o) {
			break
		}
	}
	is.wait()
	st.record(wk.samples)
}

// worker collects one worker's samples.
type worker struct {
	st      *runState
	mu      sync.Mutex // the wire reader records beside the job loop
	samples []sample
}

// done records a completed op; a join that succeeded makes its node
// eligible for leave.
func (wk *worker) done(o *op, node uint64, err error) {
	s := sample{class: o.class, lat: time.Since(o.t0), err: err != nil}
	if err == nil && o.class == clJoin {
		wk.st.pushJoined(node)
	}
	wk.mu.Lock()
	wk.samples = append(wk.samples, s)
	wk.mu.Unlock()
}

// An issuer sends ops over one protocol. issue calls worker.done once
// the op completes — before it returns (HTTP), or later on another
// goroutine (wire) — and reports false once the worker must stop;
// wait returns when every issued op is done.
type issuer interface {
	issue(o op) bool
	wait()
}

// httpIssuer posts each op to the JSON API and waits for the answer.
type httpIssuer struct {
	rc runCfg
	wk *worker
}

func (h httpIssuer) issue(o op) bool {
	node, err := postOp(h.rc, &o)
	h.wk.done(&o, node, err)
	return true
}

func (httpIssuer) wait() {}

// wireIssuer starts each op on one pipelined connection and records
// it on the connection's reader goroutine.
type wireIssuer struct {
	wk       *worker
	m        *pidcan.WireMux
	q        pidcan.WireQuery // reused: Start encodes it before returning
	inflight sync.WaitGroup
}

func (x *wireIssuer) issue(o op) bool {
	x.inflight.Add(1)
	c := &wireCall{op: o, x: x}
	if err := x.m.Start(0, c); err != nil {
		log.Printf("wire: %v", err)
		c.Done(nil, err)
		return false
	}
	return true
}

// wireCall is one op in flight on the wire.
type wireCall struct {
	op
	x *wireIssuer
}

func (c *wireCall) Enqueue(cl *pidcan.WireClient) uint32 {
	switch c.class {
	case clQuery:
		q := &c.x.q
		q.Demand, q.Consistent = c.demand, c.consistent
		return cl.EnqueueQuery(q)
	case clUpdate:
		return cl.EnqueueUpdate(c.node, c.avail, c.announce)
	case clJoin:
		return cl.EnqueueJoin(c.shard, c.avail)
	}
	return cl.EnqueueLeave(c.node)
}

func (c *wireCall) Done(r *pidcan.WireResponse, err error) {
	var node uint64
	if err == nil && r.Errored {
		e := r.Err
		err = &e
	} else if err == nil {
		node = r.Node
	}
	c.x.wk.done(&c.op, node, err)
	c.x.inflight.Done()
}

func (x *wireIssuer) wait() {
	x.inflight.Wait()
	x.m.Close()
}

// pickUpdateNode picks an update victim, honoring zipf shard skew.
func pickUpdateNode(rc runCfg, rng *rand.Rand, zipf *rand.Zipf) uint64 {
	id := rc.nodes[rng.IntN(len(rc.nodes))]
	if zipf != nil {
		if pool := rc.nodesByShard[zipf.Uint64()]; len(pool) > 0 {
			id = pool[rng.IntN(len(pool))]
		}
	}
	return id
}

// reportBalance prints the server's per-shard populations and
// rebalancer counters after a skewed run, so convergence (or the
// lack of a rebalancer) is visible without a second tool.
func reportBalance(client *http.Client, base string) {
	r, err := client.Get(base + "/stats")
	if err != nil {
		log.Printf("post-run stats: %v", err)
		return
	}
	defer r.Body.Close()
	var st struct {
		Shards []struct {
			Shard int `json:"shard"`
			Nodes int `json:"nodes"`
		} `json:"shards"`
		Migrations    uint64  `json:"migrations"`
		Rebalances    uint64  `json:"rebalances"`
		LastImbalance float64 `json:"last_imbalance"`
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		log.Printf("post-run stats: %v", err)
		return
	}
	if len(st.Shards) == 0 {
		return
	}
	min, max := st.Shards[0].Nodes, st.Shards[0].Nodes
	var pops []string
	for _, sh := range st.Shards {
		pops = append(pops, strconv.Itoa(sh.Nodes))
		if sh.Nodes < min {
			min = sh.Nodes
		}
		if sh.Nodes > max {
			max = sh.Nodes
		}
	}
	ratio := math.Inf(1)
	if min > 0 {
		ratio = float64(max) / float64(min)
	}
	fmt.Printf("\nshard populations after run: [%s] (max/min %.2f); server ran %d rebalance passes, %d migrations (last sampled imbalance %.2f)\n",
		strings.Join(pops, " "), ratio, st.Rebalances, st.Migrations, st.LastImbalance)
}

func parseMix(s string) ([numClasses]float64, error) {
	var w [numClasses]float64
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return w, fmt.Errorf("bad mix element %q", part)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil || x < 0 {
			return w, fmt.Errorf("bad mix weight %q", part)
		}
		found := false
		for c, n := range classNames {
			if n == name {
				w[c] = x
				found = true
			}
		}
		if !found {
			return w, fmt.Errorf("unknown mix class %q", name)
		}
	}
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		return w, fmt.Errorf("mix %q has no positive weight", s)
	}
	return w, nil
}

func pickClass(rng *rand.Rand, w [numClasses]float64) opClass {
	total := 0.0
	for _, x := range w {
		total += x
	}
	r := rng.Float64() * total
	for c, x := range w {
		if r < x {
			return opClass(c)
		}
		r -= x
	}
	return clQuery
}

func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// --- HTTP ops ---------------------------------------------------------------

// post sends one JSON request.
func post(client *http.Client, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(r.Body).Decode(&e)
		return fmt.Errorf("%s: %s (%s)", url, r.Status, e.Error)
	}
	if resp != nil {
		return json.NewDecoder(r.Body).Decode(resp)
	}
	// Drain so the connection goes back to the keep-alive pool.
	io.Copy(io.Discard, r.Body)
	return nil
}

func fetchStats(client *http.Client, base string) (cmax []float64, shards int, err error) {
	r, err := client.Get(base + "/stats")
	if err != nil {
		return nil, 0, err
	}
	defer r.Body.Close()
	var st struct {
		CMax   []float64 `json:"cmax"`
		Shards []struct {
			Shard int `json:"shard"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		return nil, 0, err
	}
	if len(st.CMax) == 0 {
		return nil, 0, fmt.Errorf("%s/stats returned no cmax", base)
	}
	return st.CMax, len(st.Shards), nil
}

func fetchNodes(client *http.Client, base string) ([]uint64, error) {
	r, err := client.Get(base + "/nodes")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var out struct {
		Nodes []uint64 `json:"nodes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out.Nodes) == 0 {
		return nil, fmt.Errorf("%s/nodes returned no nodes", base)
	}
	return out.Nodes, nil
}

func randVec(rng *rand.Rand, cmax []float64, lo, hi float64) []float64 {
	v := make([]float64, len(cmax))
	for i, c := range cmax {
		v[i] = c * (lo + (hi-lo)*rng.Float64())
	}
	return v
}

// postOp issues o over the JSON API; a join returns its node.
func postOp(rc runCfg, o *op) (uint64, error) {
	switch o.class {
	case clQuery:
		req := struct {
			Demand     []float64 `json:"demand"`
			K          int       `json:"k"`
			Consistent bool      `json:"consistent,omitempty"`
		}{Demand: o.demand, K: rc.k, Consistent: o.consistent}
		return 0, post(rc.client, rc.baseURL+"/query", req, nil)
	case clUpdate:
		req := struct {
			Node     uint64    `json:"node"`
			Avail    []float64 `json:"avail"`
			Announce bool      `json:"announce"`
		}{o.node, o.avail, o.announce}
		return 0, post(rc.client, rc.baseURL+"/update", req, nil)
	case clJoin:
		req := struct {
			Avail []float64 `json:"avail"`
			Shard *int      `json:"shard,omitempty"`
		}{Avail: o.avail}
		if o.shard >= 0 {
			req.Shard = &o.shard
		}
		var resp struct {
			Node uint64 `json:"node"`
		}
		err := post(rc.client, rc.baseURL+"/join", req, &resp)
		return resp.Node, err
	}
	req := struct {
		Node uint64 `json:"node"`
	}{o.node}
	return 0, post(rc.client, rc.baseURL+"/leave", req, nil)
}

// --- reporting --------------------------------------------------------------

type classSummary struct {
	Count  int     `json:"count"`
	Errors int     `json:"errors"`
	P50ms  float64 `json:"p50_ms"`
	P90ms  float64 `json:"p90_ms"`
	P99ms  float64 `json:"p99_ms"`
	P999ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

type summary struct {
	Proto string `json:"proto"`
	// Seed is the generator seed the run used — stamped into the
	// summary so a recorded run can be regenerated (or replayed
	// against a capture trace) bit-for-bit.
	Seed        uint64                  `json:"seed"`
	OfferedQPS  float64                 `json:"offered_qps"`
	AchievedQPS float64                 `json:"achieved_qps"`
	DurationSec float64                 `json:"duration_sec"`
	Requests    int                     `json:"requests"`
	Errors      int                     `json:"errors"`
	Shed        int                     `json:"shed"`
	Late        int                     `json:"late"`
	Classes     map[string]classSummary `json:"classes"`
	// Server is the read-path view from the server's /stats,
	// differenced across the run: how the query cache and the
	// snapshot dominance index behaved under this load.
	Server *serverProbe `json:"server,omitempty"`
}

// serverProbe mirrors the cache/index counters of the server's
// /stats endpoint. Counter fields are deltas over the run; the knob
// fields (quantum, population) are the post-run values, which is what
// makes the adaptive controller's drift visible.
type serverProbe struct {
	TotalNodes      int     `json:"total_nodes"`
	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	CacheStale      uint64  `json:"cache_stale"`
	CacheStaleShare float64 `json:"cache_stale_share"`
	CacheAdaptions  uint64  `json:"cache_adaptions"`
	CacheQuantum    float64 `json:"cache_quantum"`
	IndexSearches   uint64  `json:"index_searches"`
	IndexScanned    uint64  `json:"index_scanned_records"`
	IndexCandidates uint64  `json:"index_candidates"`
	ScannedPerQuery float64 `json:"index_scanned_per_search"`
	CandsPerQuery   float64 `json:"index_candidates_per_search"`
	IndexBuilds     uint64  `json:"index_builds"`
	IndexDeltas     uint64  `json:"index_delta_builds"`
	IndexReuses     uint64  `json:"index_reuses"`

	// Router-mode fields (-router, a pidcan-router target): scatter
	// legs actually sent vs pruned by demand-region summaries, and
	// the mean pipeline depth on the shared member connections.
	// LegsPerQuery is derived from the run's deltas.
	Router           bool    `json:"-"`
	Queries          uint64  `json:"queries"`
	FedLegsSent      uint64  `json:"fed_legs_sent"`
	FedLegsPruned    uint64  `json:"fed_legs_pruned"`
	FedLegsPerQuery  float64 `json:"fed_legs_per_query"`
	FedPipelineDepth float64 `json:"fed_pipeline_depth"`
}

// fetchServerProbe reads the read-path counters from /stats.
func fetchServerProbe(client *http.Client, base string) (*serverProbe, error) {
	r, err := client.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	var p serverProbe
	if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

// diff returns the counter deltas of after over before, keeping
// after's knob values.
func (p *serverProbe) diff(before *serverProbe) *serverProbe {
	d := *p
	d.CacheHits -= before.CacheHits
	d.CacheMisses -= before.CacheMisses
	d.CacheStale -= before.CacheStale
	d.CacheAdaptions -= before.CacheAdaptions
	d.IndexSearches -= before.IndexSearches
	d.IndexScanned -= before.IndexScanned
	d.IndexCandidates -= before.IndexCandidates
	d.IndexBuilds -= before.IndexBuilds
	d.IndexDeltas -= before.IndexDeltas
	d.IndexReuses -= before.IndexReuses
	d.Queries -= before.Queries
	d.FedLegsSent -= before.FedLegsSent
	d.FedLegsPruned -= before.FedLegsPruned
	d.FedLegsPerQuery = 0
	if d.Queries > 0 {
		d.FedLegsPerQuery = float64(d.FedLegsSent) / float64(d.Queries)
	}
	if lookups := d.CacheHits + d.CacheMisses; lookups > 0 {
		d.CacheHitRate = float64(d.CacheHits) / float64(lookups)
		d.CacheStaleShare = float64(d.CacheStale) / float64(lookups)
	}
	if d.IndexSearches > 0 {
		d.ScannedPerQuery = float64(d.IndexScanned) / float64(d.IndexSearches)
		d.CandsPerQuery = float64(d.IndexCandidates) / float64(d.IndexSearches)
	}
	return &d
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func summarize(lats []time.Duration, count, errs int) classSummary {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var max time.Duration
	if len(lats) > 0 {
		max = lats[len(lats)-1]
	}
	return classSummary{
		Count:  count,
		Errors: errs,
		P50ms:  ms(percentile(lats, 0.50)),
		P90ms:  ms(percentile(lats, 0.90)),
		P99ms:  ms(percentile(lats, 0.99)),
		P999ms: ms(percentile(lats, 0.999)),
		MaxMs:  ms(max),
	}
}

// buildSummary aggregates one run's samples.
func buildSummary(proto string, seed uint64, samples []sample, elapsed time.Duration, offered float64, shed, late int) summary {
	var all []time.Duration
	perClass := map[opClass][]time.Duration{}
	counts := map[opClass]int{}
	errsPer := map[opClass]int{}
	errs := 0
	for _, s := range samples {
		counts[s.class]++
		if s.err {
			errs++
			errsPer[s.class]++
			continue
		}
		all = append(all, s.lat)
		perClass[s.class] = append(perClass[s.class], s.lat)
	}
	sum := summary{
		Proto:       proto,
		Seed:        seed,
		OfferedQPS:  offered,
		AchievedQPS: float64(len(samples)) / elapsed.Seconds(),
		DurationSec: elapsed.Seconds(),
		Requests:    len(samples),
		Errors:      errs,
		Shed:        shed,
		Late:        late,
		Classes:     map[string]classSummary{},
	}
	sum.Classes["all"] = summarize(all, len(samples), errs)
	for c, lats := range perClass {
		sum.Classes[classNames[c]] = summarize(lats, counts[c], errsPer[c])
	}
	return sum
}

func report(sum summary, jsonOut string) {
	fmt.Printf("\n[%s seed=%d] %d requests in %.2fs: %.0f req/s achieved (%.0f offered), %d errors, %d shed, %d late\n",
		sum.Proto, sum.Seed, sum.Requests, sum.DurationSec, sum.AchievedQPS, sum.OfferedQPS, sum.Errors, sum.Shed, sum.Late)
	fmt.Printf("%-8s %10s %8s %9s %9s %9s %9s %9s\n",
		"class", "count", "errors", "p50", "p90", "p99", "p99.9", "max")
	order := []string{"all", "query", "update", "join", "leave"}
	for _, name := range order {
		cs, ok := sum.Classes[name]
		if !ok {
			continue
		}
		fmt.Printf("%-8s %10d %8d %8.2fms %8.2fms %8.2fms %8.2fms %8.2fms\n",
			name, cs.Count, cs.Errors, cs.P50ms, cs.P90ms, cs.P99ms, cs.P999ms, cs.MaxMs)
	}
	if p := sum.Server; p != nil && p.Router {
		fmt.Printf("server:  router: %.2f legs/query (%d sent, %d pruned over %d queries); pipeline depth %.1f\n",
			p.FedLegsPerQuery, p.FedLegsSent, p.FedLegsPruned, p.Queries, p.FedPipelineDepth)
	} else if p != nil {
		fmt.Printf("server:  %d nodes; cache %.1f%% hits, %.1f%% invalidated (%d adaptions; quantum %.4f); index %.1f records/search, %.1f candidates/search over %d searches (%d builds, %d deltas, %d reuses)\n",
			p.TotalNodes, 100*p.CacheHitRate, 100*p.CacheStaleShare, p.CacheAdaptions, p.CacheQuantum,
			p.ScannedPerQuery, p.CandsPerQuery, p.IndexSearches,
			p.IndexBuilds, p.IndexDeltas, p.IndexReuses)
	}

	if jsonOut != "" {
		data, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", jsonOut)
	}
}
