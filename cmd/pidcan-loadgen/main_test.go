package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pidcan"
)

// target is one engine with both serving edges attached.
type target struct {
	eng      *pidcan.Engine
	base     string
	wireAddr string
}

func startTarget(t *testing.T) *target {
	t.Helper()
	eng, err := pidcan.NewEngine(pidcan.EngineConfig{
		Shards: 2, NodesPerShard: 16, Seed: 7, Warmup: pidcan.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(pidcan.NewHandler(eng))
	t.Cleanup(ts.Close)
	ws := pidcan.NewWireServer(func() *pidcan.Engine { return eng }, pidcan.WireServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	return &target{eng: eng, base: ts.URL, wireAddr: ln.Addr().String()}
}

// TestRunLoad runs the generator against one engine over both
// protocols, closed-loop and paced, with the mixes the smoke scripts
// use. Every run must finish without an error, record exactly one
// sample per request the engine completed, and remove only nodes it
// joined itself.
func TestRunLoad(t *testing.T) {
	mixes := []string{
		"query=100",                         // smoke_wire.sh
		"query=80,update=15,join=4,leave=1", // smoke_failover.sh
		"query=80,update=12,join=6,leave=2", // smoke_federation.sh
		"query=92,update=5,join=2,leave=1",  // the default, smoke_replay.sh
	}
	for _, proto := range []string{"http", "wire"} {
		for _, rate := range []float64{0, 2000} {
			for _, mix := range mixes {
				name := proto + "/closed/" + mix
				if rate > 0 {
					name = proto + "/paced/" + mix
				}
				t.Run(name, func(t *testing.T) { runAndCheck(t, proto, rate, mix) })
			}
		}
	}
}

func runAndCheck(t *testing.T, proto string, rate float64, mix string) {
	tg := startTarget(t)
	weights, err := parseMix(mix)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	cmax, shards, err := fetchStats(client, tg.base)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := fetchNodes(client, tg.base)
	if err != nil {
		t.Fatal(err)
	}
	before := tg.eng.Stats()
	sum := runLoad(runCfg{
		proto: proto, baseURL: tg.base, wireAddr: tg.wireAddr,
		rate: rate, duration: 150 * time.Millisecond, workers: 4,
		arrivals: "poisson", weights: weights, k: 3, profiles: 16,
		consist: 0.1, seed: 3,
		client: client, cmax: cmax, nodes: nodes, shardCount: shards,
	})
	after := tg.eng.Stats()

	if sum.Errors != 0 || sum.Shed != 0 {
		t.Fatalf("%d errors, %d shed over %d requests", sum.Errors, sum.Shed, sum.Requests)
	}
	if sum.Requests == 0 {
		t.Fatal("no requests")
	}
	served := map[string]uint64{
		"query":  after.Queries - before.Queries,
		"update": after.Updates - before.Updates,
		"join":   after.Joins - before.Joins,
		"leave":  after.Leaves - before.Leaves,
	}
	total := 0
	for class, n := range served {
		if got := uint64(sum.Classes[class].Count); got != n {
			t.Errorf("%s: %d samples for %d requests the engine served", class, got, n)
		}
		total += int(n)
	}
	if sum.Requests != total {
		t.Errorf("%d samples for %d served requests", sum.Requests, total)
	}

	// Leaves take only nodes this run joined: every node the run found
	// is still there, next to the joins it has not removed again.
	alive := map[pidcan.GlobalNodeID]bool{}
	for _, id := range tg.eng.Nodes() {
		alive[id] = true
	}
	for _, id := range nodes {
		if !alive[pidcan.GlobalNodeID(id)] {
			t.Fatalf("node %d, there before the run, was removed", id)
		}
	}
	if want := len(nodes) + int(served["join"]) - int(served["leave"]); len(alive) != want {
		t.Fatalf("%d nodes after the run, want %d", len(alive), want)
	}
}

func TestPercentile(t *testing.T) {
	var ms []time.Duration
	for i := 1; i <= 10; i++ {
		ms = append(ms, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0, time.Millisecond},
		{0.1, time.Millisecond},
		{0.5, 5 * time.Millisecond},
		{0.9, 9 * time.Millisecond},
		{0.99, 10 * time.Millisecond},
		{1, 10 * time.Millisecond},
	} {
		if got := percentile(ms, tc.p); got != tc.want {
			t.Errorf("percentile(1..10ms, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}
