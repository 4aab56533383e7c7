package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pidcan/internal/vector"
)

func newTestServer(t *testing.T, shards int) (*Engine, *httptest.Server) {
	t.Helper()
	e := newTestEngine(t, testConfig(shards))
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)
	return e, ts
}

func postJSON(t *testing.T, url string, req any) (*http.Response, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: decoding response: %v", url, err)
	}
	return resp, out
}

func TestHTTPQueryUpdateRoundTrip(t *testing.T) {
	e, ts := newTestServer(t, 2)
	id := e.Nodes()[0]

	resp, out := postJSON(t, ts.URL+"/update",
		map[string]any{"node": id, "avail": []float64{6, 6}, "announce": true})
	if resp.StatusCode != http.StatusOK || out["ok"] != true {
		t.Fatalf("update: %d %v", resp.StatusCode, out)
	}

	resp, out = postJSON(t, ts.URL+"/query",
		map[string]any{"demand": []float64{2, 2}, "k": 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %v", resp.StatusCode, out)
	}
	cands, ok := out["candidates"].([]any)
	if !ok || len(cands) != 1 {
		t.Fatalf("query response: %v", out)
	}
	c := cands[0].(map[string]any)
	if GlobalID(c["node"].(float64)) != id {
		t.Fatalf("candidate: %v, want node %v", c, id)
	}
}

func TestHTTPJoinLeaveNodesStats(t *testing.T) {
	_, ts := newTestServer(t, 2)

	resp, out := postJSON(t, ts.URL+"/join", map[string]any{"avail": []float64{9, 9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %v", resp.StatusCode, out)
	}
	id := uint64(out["node"].(float64))

	r, err := http.Get(ts.URL + "/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nodes struct {
		Nodes []uint64 `json:"nodes"`
	}
	if err := json.NewDecoder(r.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(nodes.Nodes) != 9 {
		t.Fatalf("/nodes: got %d, want 9 (%v)", len(nodes.Nodes), nodes.Nodes)
	}

	resp, out = postJSON(t, ts.URL+"/leave", map[string]any{"node": id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leave: %d %v", resp.StatusCode, out)
	}
	// Leaving again must be a 409, not a 500.
	resp, out = postJSON(t, ts.URL+"/leave", map[string]any{"node": id})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double leave: %d %v", resp.StatusCode, out)
	}

	r, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Joins != 1 || st.Leaves != 1 || len(st.Shards) != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.CMax) != 2 {
		t.Fatalf("stats cmax: %+v", st.CMax)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, tc := range []struct {
		path string
		body map[string]any
		want int
	}{
		{"/query", map[string]any{"demand": []float64{1}}, http.StatusBadRequest},
		{"/query", map[string]any{"demand": []float64{-1, 1}}, http.StatusBadRequest},
		{"/query", map[string]any{"unknown_field": 1}, http.StatusBadRequest},
		{"/query", map[string]any{"demand": []float64{1, 1}, "consistent": true, "scope": "bogus"}, http.StatusBadRequest},
		// Unknown shard indexes are 404s, not generic conflicts.
		{"/update", map[string]any{"node": 1 << 40, "avail": []float64{1, 1}}, http.StatusNotFound},
		{"/leave", map[string]any{"node": 5 << 32}, http.StatusNotFound},
		// A known shard rejecting the node stays a 409.
		{"/leave", map[string]any{"node": 99}, http.StatusConflict},
	} {
		resp, out := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s %v: got %d %v, want %d", tc.path, tc.body, resp.StatusCode, out, tc.want)
		}
		if _, ok := out["error"]; !ok {
			t.Errorf("%s %v: no error field in %v", tc.path, tc.body, out)
		}
	}
	// GET on a POST route is a 405.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: %d", resp.StatusCode)
	}
}

// TestHTTPOversizedBodyRejected pins the request-body cap: a body
// larger than 1 MiB is cut off mid-decode and answered with 400.
func TestHTTPOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, 1)
	// A syntactically valid but enormous demand array: the decoder
	// hits the MaxBytesReader limit while still reading elements.
	body := "{\"demand\":[0" + strings.Repeat(",0", 1<<19) + "]}"
	if len(body) <= maxRequestBody {
		t.Fatalf("test body only %d bytes", len(body))
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: got %d %v, want 400", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"], "exceeds") {
		t.Fatalf("oversized body error %q does not name the cap", out["error"])
	}
	// The server survives and still answers within-limit requests.
	r, out2 := postJSON(t, ts.URL+"/query", map[string]any{"demand": []float64{1, 1}})
	if r.StatusCode != http.StatusOK {
		t.Fatalf("follow-up query: %d %v", r.StatusCode, out2)
	}
}

// TestHTTPJoinTargetedAndRebalance drives the skew-then-rebalance
// cycle over the wire: {"shard":S} joins pile onto shard 0, POST
// /rebalance levels the populations, and /stats reports the
// migration counters.
func TestHTTPJoinTargetedAndRebalance(t *testing.T) {
	_, ts := newTestServer(t, 2)
	for i := 0; i < 8; i++ {
		resp, out := postJSON(t, ts.URL+"/join", map[string]any{"avail": []float64{5, 5}, "shard": 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("targeted join: %d %v", resp.StatusCode, out)
		}
		if id := GlobalID(out["node"].(float64)); id.Shard() != 0 {
			t.Fatalf("targeted join landed on shard %d", id.Shard())
		}
	}
	resp, out := postJSON(t, ts.URL+"/join", map[string]any{"avail": []float64{5, 5}, "shard": 7})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("join on unknown shard: %d %v, want 404", resp.StatusCode, out)
	}

	// 12 vs 4 nodes: a rebalance pass must move some across.
	r, err := http.Post(ts.URL+"/rebalance", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var res RebalanceResult
	if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("rebalance: %d %+v", r.StatusCode, res)
	}
	if res.From != 0 || res.To != 1 || res.Moved == 0 || res.Imbalance != 3 {
		t.Fatalf("rebalance result: %+v", res)
	}

	r, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Migrations != uint64(res.Moved) || st.Rebalances != 1 || st.LastImbalance != 3 {
		t.Fatalf("stats after rebalance: %+v", st)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t, 1)
	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", r.StatusCode)
	}
}

// TestHTTPCheckpoint: POST /checkpoint snapshots a durable engine
// (200 with a sequence number) and is a clean 400 on an in-memory
// one.
func TestHTTPCheckpoint(t *testing.T) {
	cfg := testConfig(2)
	cfg.DataDir = t.TempDir()
	e, err := New(cfg, func(i int, rc Config) (Backend, error) {
		return newFake(rc.NodesPerShard, rc.CMax.Dim()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	if err := e.Update(e.Nodes()[0], vector.Of(5, 5), false); err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, ts.URL+"/checkpoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", resp.StatusCode, out)
	}
	if seq, ok := out["seq"].(float64); !ok || seq != 1 {
		t.Fatalf("checkpoint seq: %v, want 1", out)
	}

	// Durability fields surface in /stats.
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if !st.Durable || st.Checkpoints != 1 || st.LogRecords == 0 {
		t.Fatalf("stats durability fields: durable=%v checkpoints=%d wal_records=%d",
			st.Durable, st.Checkpoints, st.LogRecords)
	}

	// In-memory engine: 400.
	_, ts2 := newTestServer(t, 1)
	resp, out = postJSON(t, ts2.URL+"/checkpoint", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint on in-memory engine: %d %v, want 400", resp.StatusCode, out)
	}
}

// TestHTTPFollowerRouting: on a follower, writes are 503 naming the
// primary, reads serve, /stats reports the role, and POST /promote
// flips the engine to a writable primary under a new epoch.
func TestHTTPFollowerRouting(t *testing.T) {
	cfg := testConfig(2)
	cfg.DataDir = t.TempDir()
	cfg.Follower = true
	cfg.PrimaryAddr = "10.0.0.1:7000"
	e, err := New(cfg, func(i int, rc Config) (Backend, error) {
		return newFake(rc.NodesPerShard, rc.CMax.Dim()), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ts := httptest.NewServer(NewHandler(e))
	t.Cleanup(ts.Close)

	// Writes: 503 + primary address.
	resp, out := postJSON(t, ts.URL+"/update",
		map[string]any{"node": 0, "avail": []float64{1, 1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /update: %d %v, want 503", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, cfg.PrimaryAddr) {
		t.Fatalf("follower 503 %q does not name the primary", msg)
	}
	// Structured redirect: Retry-After header + primary address and
	// retry hint in the body, so clients re-point without parsing the
	// error string.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("follower 503 Retry-After = %q, want \"1\"", ra)
	}
	if p, _ := out["primary"].(string); p != cfg.PrimaryAddr {
		t.Fatalf("follower 503 primary = %v, want %q", out["primary"], cfg.PrimaryAddr)
	}
	if ms, _ := out["retry_after_ms"].(float64); ms != 1000 {
		t.Fatalf("follower 503 retry_after_ms = %v, want 1000", out["retry_after_ms"])
	}
	resp, _ = postJSON(t, ts.URL+"/join", map[string]any{})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /join: %d, want 503", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/rebalance", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /rebalance: %d, want 503", resp.StatusCode)
	}

	// Reads serve; /stats names the role.
	resp, _ = postJSON(t, ts.URL+"/query", map[string]any{"demand": []float64{0, 0}, "k": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /query: %d, want 200", resp.StatusCode)
	}
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Role != "follower" || st.PrimaryAddr != cfg.PrimaryAddr {
		t.Fatalf("follower stats role=%q primary=%q", st.Role, st.PrimaryAddr)
	}

	// Promote: 200 with the new epoch, then writes pass.
	resp, out = postJSON(t, ts.URL+"/promote", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/promote: %d %v", resp.StatusCode, out)
	}
	if role, _ := out["role"].(string); role != "primary" {
		t.Fatalf("/promote role %v", out)
	}
	if epoch, _ := out["epoch"].(float64); epoch != 2 {
		t.Fatalf("/promote epoch %v, want 2", out)
	}
	resp, out = postJSON(t, ts.URL+"/update",
		map[string]any{"node": 0, "avail": []float64{1, 1}, "announce": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-promotion /update: %d %v", resp.StatusCode, out)
	}
	// A second promote is a clean 409.
	resp, _ = postJSON(t, ts.URL+"/promote", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double /promote: %d, want 409", resp.StatusCode)
	}
}
