package wire_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
)

// TestWireConcurrentConnections hammers one server from many
// concurrent connections — pipelined readers, synchronous writers and
// a connection-churn loop — while the engine keeps mutating. Run
// under -race in CI, it is the data-race net over the per-connection
// reuse discipline (every buffer is confined to its handler
// goroutine; only the counters are shared).
func TestWireConcurrentConnections(t *testing.T) {
	eng := newTestEngine(t, serve.Config{Shards: 2, NodesPerShard: 8, Seed: 23})
	srv, addr := startWire(t, eng)
	eng.SetWireStats(srv.Stats)

	dim := eng.Config().CMax.Dim()
	const (
		queriers = 6
		writers  = 2
		churners = 2
		perConn  = 300
		depth    = 32 // pipelined requests in flight per querier
	)
	var served atomic.Uint64
	var wg sync.WaitGroup

	// Pipelined queriers: split sender and reader across goroutines,
	// the deep-pipeline client pattern the protocol sanctions.
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			demand := make([]float64, dim)
			var rg sync.WaitGroup
			rg.Add(1)
			go func() {
				defer rg.Done()
				for i := 0; i < perConn; i++ {
					r, err := c.ReadResponse()
					if err != nil {
						t.Errorf("querier %d response %d: %v", g, i, err)
						return
					}
					if r.Errored {
						t.Errorf("querier %d response %d: %v", g, i, &r.Err)
						return
					}
					served.Add(1)
				}
			}()
			for i := 0; i < perConn; i++ {
				c.EnqueueQuery(&wire.Query{Demand: demand, K: 2})
				if i%depth == depth-1 || i == perConn-1 {
					if err := c.Flush(); err != nil {
						t.Errorf("querier %d flush: %v", g, err)
						break
					}
				}
			}
			rg.Wait()
		}(g)
	}

	// Synchronous writers churning node availability — of the seeded
	// population only, listed before any churner can join a
	// short-lived node into it.
	nodes := eng.Nodes()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := wire.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			avail := make([]float64, dim)
			for i := 0; i < perConn; i++ {
				for k := range avail {
					avail[k] = float64(1 + (g+i+k)%5)
				}
				node := uint64(nodes[(g*perConn+i)%len(nodes)])
				if err := c.Update(node, avail, false); err != nil {
					t.Errorf("writer %d update %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}

	// Churners: join, query, leave on short-lived connections.
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			avail := make([]float64, dim)
			for k := range avail {
				avail[k] = 1
			}
			for i := 0; i < 20; i++ {
				c, err := wire.Dial(addr)
				if err != nil {
					t.Error(err)
					return
				}
				id, err := c.Join(g%2, avail)
				if err != nil {
					t.Errorf("churner %d join: %v", g, err)
					c.Close()
					return
				}
				var res wire.QueryResult
				if err := c.Query(&wire.Query{Demand: make([]float64, dim), K: 1}, &res); err != nil {
					t.Errorf("churner %d query: %v", g, err)
				}
				if err := c.Leave(id); err != nil {
					t.Errorf("churner %d leave: %v", g, err)
				}
				c.Close()
			}
		}(g)
	}

	wg.Wait()
	if got := served.Load(); got != queriers*perConn {
		t.Fatalf("served %d pipelined queries, want %d", got, queriers*perConn)
	}
	st := srv.Stats()
	if st.Requests < queriers*perConn {
		t.Fatalf("server request counter %d below the served floor", st.Requests)
	}
}
