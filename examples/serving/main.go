// Serving: the concurrent query-serving engine end to end — a
// sharded snapshot engine over real PID-CAN clusters, concurrent
// clients, the query cache, and the HTTP front-end (the same handler
// cmd/pidcan-serve mounts), all in one process.
//
// Where examples/rangequery drives one single-goroutine Cluster,
// this walkthrough shows the layer the serving subsystem adds:
// writes flow through per-shard batch queues while best-fit range
// queries read immutable copy-on-write snapshots lock-free.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"pidcan"
	"pidcan/internal/vector"
)

func main() {
	// A 4-shard engine; each shard is an independent deterministic
	// 32-node PID-CAN cluster over a 3-dimensional resource space
	// {CPU GFlops ≤ 16, memory GB ≤ 64, disk GB ≤ 500}.
	cmax := vector.Of(16, 64, 500)
	eng, err := pidcan.NewEngine(pidcan.EngineConfig{
		Shards:        4,
		NodesPerShard: 32,
		CMax:          cmax,
		Seed:          7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// Publish availabilities: the engine assigns every node a global
	// id (shard in the high 32 bits) and routes each write to its
	// shard's batch queue.
	for i, id := range eng.Nodes() {
		var avail pidcan.Vec
		switch i % 3 {
		case 0:
			avail = vector.Of(1.5, 4, 40) // small, mostly busy
		case 1:
			avail = vector.Of(6, 24, 180) // medium
		default:
			avail = vector.Of(14, 56, 450) // large, mostly idle
		}
		jitter := 0.85 + 0.3*float64(i%11)/10
		if err := eng.Update(id, avail.Scale(jitter).Min(cmax), true); err != nil {
			log.Fatal(err)
		}
	}

	// Concurrent clients — something a bare Cluster cannot host. 16
	// goroutines issue best-fit queries at once; every one of them
	// reads the shard snapshots lock-free.
	demands := []pidcan.Vec{
		vector.Of(1, 2, 20),    // anything modest
		vector.Of(4, 16, 100),  // needs a medium machine
		vector.Of(12, 48, 400), // needs a large machine
	}
	var wg sync.WaitGroup
	results := make([][]pidcan.Candidate, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			resp, err := eng.Query(pidcan.QueryRequest{Demand: demands[w%len(demands)], K: 3})
			if err != nil {
				log.Fatal(err)
			}
			results[w] = resp.Candidates
		}(w)
	}
	wg.Wait()
	for i, demand := range demands {
		fmt.Printf("demand %v -> best fit %s\n", demand, describe(results[i]))
	}

	// A node joins with capacity to spare, then the closest-fit
	// ranking puts it first for a demand just under its availability.
	id, err := eng.Join(vector.Of(15, 60, 480))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := eng.Query(pidcan.QueryRequest{Demand: vector.Of(14.9, 59.5, 478), K: 1, NoCache: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after join of %v: %s\n", id, describe(resp.Candidates))
	if err := eng.Leave(id); err != nil {
		log.Fatal(err)
	}

	// A consistent query trades the lock-free snapshot read for the
	// paper's three-phase protocol: one querying node searching one
	// shard's overlay, the shards taken round-robin, its message cost
	// reported as Hops. Two in a row consult two different shards.
	for i := 0; i < 2; i++ {
		resp, err := eng.Query(pidcan.QueryRequest{
			Demand: vector.Of(4, 16, 100), K: 4, Consistent: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("consistent query: %d shard answered, %d hops: %s\n",
			resp.ShardsQueried, resp.Hops, describe(resp.Candidates))
	}

	// Repeated equivalent demands are served from the query cache
	// until a write that could change their answer.
	for i := 0; i < 3; i++ {
		resp, err := eng.Query(pidcan.QueryRequest{Demand: vector.Of(4, 16, 100), K: 3})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cache round %d: cached=%v\n", i, resp.Cached)
	}

	// Cross-shard node migration and adaptive rebalancing. Targeted
	// joins pile population onto shard 0 — the skew a production
	// deployment gets from hot tenants or uneven churn.
	skewed, err := eng.JoinOn(0, vector.Of(8, 32, 250))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		if _, err := eng.JoinOn(0, vector.Of(8, 32, 250)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("after 12 targeted joins: %s\n", shardPops(eng))
	// Rebalance passes migrate nodes from the most- to the
	// least-loaded shard (each pass caps its moves so serving never
	// starves); with EngineConfig.RebalanceInterval set this runs in
	// the background instead.
	for {
		res, err := eng.Rebalance()
		if err != nil {
			log.Fatal(err)
		}
		if res.Moved == 0 {
			break
		}
		fmt.Printf("rebalance: imbalance %.2f, moved %d node(s) (worst pair: shard %d -> %d)\n",
			res.Imbalance, res.Moved, res.From, res.To)
	}
	fmt.Printf("after rebalancing: %s\n", shardPops(eng))
	// Migration is invisible to callers: the id JoinOn returned keeps
	// working wherever the node now lives.
	if err := eng.Update(skewed, vector.Of(9, 36, 260), true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update through the pre-migration id %v still lands (forwarded ids: %d, migrations: %d)\n",
		skewed, eng.Stats().ForwardedIDs, eng.Stats().Migrations)

	// The same engine behind HTTP: this handler is exactly what
	// cmd/pidcan-serve listens with.
	ts := httptest.NewServer(pidcan.NewHandler(eng))
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"demand": []float64{4, 16, 100}, "k": 2})
	httpResp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var qr pidcan.QueryResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&qr); err != nil {
		log.Fatal(err)
	}
	httpResp.Body.Close()
	fmt.Printf("HTTP /query -> %s\n", describe(qr.Candidates))

	st := eng.Stats()
	fmt.Printf("stats: %d nodes on %d shards, %d queries (%d cache hits), %d updates, %d joins, %d leaves\n",
		st.TotalNodes, len(st.Shards), st.Queries, st.CacheHits, st.Updates, st.Joins, st.Leaves)

	// Durability and warm restart. With DataDir set, every write is a
	// CRC-framed op-log record on disk before its caller is
	// acknowledged, and checkpoints compact the log into a serialized
	// engine state. Stopping the engine and starting another one on
	// the same directory recovers everything — the same joins, the
	// same availability vectors, the same forwarded migration ids —
	// by replaying the log through the exact code path live writes
	// take.
	dataDir, err := os.MkdirTemp("", "pidcan-serving-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	dcfg := pidcan.EngineConfig{
		Shards: 2, NodesPerShard: 8, CMax: cmax, Seed: 7,
		DataDir: dataDir, // CheckpointEvery would add a background cadence
	}
	deng, err := pidcan.NewEngine(dcfg)
	if err != nil {
		log.Fatal(err)
	}
	durable, err := deng.Join(vector.Of(10, 40, 300))
	if err != nil {
		log.Fatal(err)
	}
	if err := deng.Migrate(durable, 1-durable.Shard()); err != nil {
		log.Fatal(err)
	}
	ck, err := deng.Checkpoint() // manual; POST /checkpoint does the same
	if err != nil {
		log.Fatal(err)
	}
	// Writes after the checkpoint land in the log tail.
	if err := deng.Update(durable, vector.Of(11, 44, 330), true); err != nil {
		log.Fatal(err)
	}
	nodesBefore := len(deng.Nodes())
	if err := deng.Close(); err != nil { // final checkpoint + fsync
		log.Fatal(err)
	}
	restarted, err := pidcan.NewEngine(dcfg) // same DataDir: warm restart
	if err != nil {
		log.Fatal(err)
	}
	defer restarted.Close()
	rst := restarted.Stats()
	fmt.Printf("durable restart: checkpoint seq %d (%d bytes), %d/%d nodes recovered in %.1fms (warm=%v)\n",
		ck.Seq, ck.Bytes, rst.TotalNodes, nodesBefore, rst.LastRecoveryMS, rst.WarmStart)
	// The pre-migration id still routes on the restarted engine.
	if err := restarted.Update(durable, vector.Of(9, 36, 270), false); err != nil {
		log.Fatal(err)
	}
	resp, err = restarted.Query(pidcan.QueryRequest{Demand: vector.Of(8, 30, 250), K: 1, NoCache: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restarted engine still answers through the migrated id: %s\n", describe(resp.Candidates))

	// Replication and fail-over. The restarted engine becomes a
	// primary serving the wire protocol, its op-log stream included,
	// on one listener; a follower bootstraps by checkpoint shipping,
	// mirrors every write, and serves reads (writes are refused,
	// naming the primary's address). Killing the primary and promoting
	// the follower keeps every acknowledged write available — the
	// two-process version is cmd/pidcan-serve -role follower.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	replSrv, err := pidcan.NewReplServer(restarted, pidcan.ReplServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	go replSrv.Serve(ln)
	fdir, err := os.MkdirTemp("", "pidcan-follower-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(fdir)
	fcfg := dcfg // the mirror must match the primary's shape
	fcfg.DataDir = fdir
	fcfg.Follower = true
	fcfg.PrimaryAddr = ln.Addr().String()
	client, err := pidcan.NewReplClient(pidcan.ReplClientConfig{
		Primary: ln.Addr().String(),
		DataDir: fdir,
		Shards:  fcfg.Shards,
		Mount:   func() (*pidcan.Engine, error) { return pidcan.NewEngine(fcfg) },
	})
	if err != nil {
		log.Fatal(err)
	}
	go client.Run()
	// Writes on the primary while the follower streams.
	replicated, err := restarted.Join(vector.Of(12, 50, 400))
	if err != nil {
		log.Fatal(err)
	}
	var follower *pidcan.Engine
	for {
		// Capture once per round: a re-bootstrap swaps the engine out
		// (nil in between), so each check must use the same pointer.
		if e := client.Engine(); e != nil && e.Stats().ReplLagRecords == 0 &&
			len(e.Nodes()) == len(restarted.Nodes()) {
			follower = e
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fst := follower.Stats()
	fmt.Printf("follower caught up: %d nodes mirrored, role %s, epoch %d\n",
		fst.TotalNodes, fst.Role, fst.Epoch)
	if err := follower.Update(replicated, vector.Of(1, 1, 1), false); err != nil {
		fmt.Printf("write on the follower is refused: %v\n", err)
	}
	// Fail-over: the primary dies, the follower is promoted and
	// serves the write the primary acknowledged.
	replSrv.Close()
	restarted.Close()
	epoch, err := client.Promote()
	if err != nil {
		log.Fatal(err)
	}
	defer follower.Close()
	resp, err = follower.Query(pidcan.QueryRequest{Demand: vector.Of(11.5, 48, 390), K: 1, NoCache: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := follower.Update(replicated, vector.Of(12, 50, 410), true); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promoted follower (epoch %d) serves the acked join %v and accepts writes: %s\n",
		epoch, replicated, describe(resp.Candidates))
}

func shardPops(eng *pidcan.Engine) string {
	var pops []string
	for _, sh := range eng.Stats().Shards {
		pops = append(pops, fmt.Sprintf("shard %d: %d", sh.Shard, sh.Nodes))
	}
	return strings.Join(pops, ", ")
}

func describe(cands []pidcan.Candidate) string {
	if len(cands) == 0 {
		return "no candidate"
	}
	return fmt.Sprintf("node %v avail %v (surplus %.3f, %d candidates)",
		cands[0].Node, cands[0].Avail, cands[0].Surplus, len(cands))
}
