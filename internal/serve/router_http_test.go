package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/fed"
	"pidcan/internal/vector"
)

// TestHTTPScatterTimeoutIs504 pins the ErrScatterTimeout row on the one
// Service that still gathers under a deadline, a federation router: a
// snapshot query no member answered by the router's ScatterTimeout
// comes back as 504, not the default 409. The member accepts the
// connection and reads every frame but never answers.
func TestHTTPScatterTimeoutIs504(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go io.Copy(io.Discard, c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	})

	r, err := fed.New(fed.Config{
		Members:        [][]string{{ln.Addr().String()}},
		CMax:           vector.Of(10, 10),
		ScatterTimeout: 20 * time.Millisecond,
		SummaryRefresh: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	ts := httptest.NewServer(serve.NewHandler(r))
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(map[string]any{"demand": []float64{1, 1}})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled member gather over HTTP: %d %s, want 504", resp.StatusCode, out)
	}
}
