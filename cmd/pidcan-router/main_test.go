package main

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pidcan"
)

// startMember runs one federation member: an engine behind a loopback
// wire listener.
func startMember(t *testing.T, seed uint64) string {
	t.Helper()
	eng, err := pidcan.NewEngine(pidcan.EngineConfig{
		Shards: 2, NodesPerShard: 4, Seed: seed, FlushInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	ws := pidcan.NewWireServer(func() *pidcan.Engine { return eng }, pidcan.WireServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	return ln.Addr().String()
}

// post sends body to path and returns the status, the content type and
// the decoded JSON object of the answer.
func post(t *testing.T, url, body string) (int, string, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber() // node ids need all 64 bits
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("POST %s %s: %d, body is not JSON: %v", url, body, resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), out
}

// TestRouterHTTP drives the router's HTTP surface in process: the
// Service API, the federation map in /stats (there is no GET /map), and
// POST /migrate with the statuses every other route answers — 404 for
// an unknown member, 400 for an unknown field, 503 once the router is
// closed — all as JSON.
func TestRouterHTTP(t *testing.T) {
	router, err := pidcan.NewFedRouter(pidcan.FedRouterConfig{
		Members:        [][]string{{startMember(t, 1)}, {startMember(t, 2)}},
		SummaryRefresh: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	ts := httptest.NewServer(newHandler(router))
	t.Cleanup(ts.Close)

	avail := `[20,70,8,200,4000]`
	status, _, out := post(t, ts.URL+"/join", `{"avail":`+avail+`}`)
	if status != http.StatusOK {
		t.Fatalf("join: %d %v", status, out)
	}
	nodeJSON := `{"node":` + out["node"].(json.Number).String()
	// The joined node is the only one that has published availability.
	if status, _, out := post(t, ts.URL+"/query", `{"demand":[1,1,1,1,1],"k":3}`); status != http.StatusOK || len(out["candidates"].([]any)) != 1 {
		t.Fatalf("query: %d %v", status, out)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Map []map[string]any `json:"map"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || len(st.Map) != 2 {
		t.Fatalf("stats map: %v %v", st.Map, err)
	}
	if resp, err = http.Get(ts.URL + "/map"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /map: %d, want 404", resp.StatusCode)
	}

	migrate := func(body string) (int, string, map[string]any) {
		return post(t, ts.URL+"/migrate", body)
	}
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"moves", nodeJSON + `,"member":1}`, http.StatusOK},
		{"unknown_member", nodeJSON + `,"member":7}`, http.StatusNotFound},
		{"unknown_field", nodeJSON + `,"member":0,"shard":1}`, http.StatusBadRequest},
		{"not_json", `{"node":`, http.StatusBadRequest},
	} {
		status, ctype, out := migrate(tc.body)
		if status != tc.status || ctype != "application/json" {
			t.Fatalf("%s: %d %q %v, want %d application/json", tc.name, status, ctype, out, tc.status)
		}
		if tc.status == http.StatusOK && out["ok"] != true {
			t.Fatalf("%s: %v", tc.name, out)
		}
		if tc.status != http.StatusOK && out["error"] == nil {
			t.Fatalf("%s: no error in %v", tc.name, out)
		}
	}
	// The migrated node still answers to its original id.
	if status, _, out := post(t, ts.URL+"/update", nodeJSON+`,"avail":`+avail+`}`); status != http.StatusOK {
		t.Fatalf("update after migrate: %d %v", status, out)
	}

	// A router has no engine operator routes.
	resp, err = http.Post(ts.URL+"/rebalance", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rebalance on a router: %d, want 404", resp.StatusCode)
	}

	router.Close()
	if status, _, out := migrate(nodeJSON + `,"member":0}`); status != http.StatusServiceUnavailable {
		t.Fatalf("migrate on a closed router: %d %v, want 503", status, out)
	}
}
