package serve_test

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"pidcan/internal/serve"
	"pidcan/internal/vector"
)

// BenchmarkEngineUpdateCluster and BenchmarkEngineMixedCluster are
// BenchmarkEngineUpdate and BenchmarkEngineMixed on the simulated
// cluster instead of the fake backend: mixed_write_10k's shape (4 x
// 2 500 nodes of pidcan.NewCluster, availabilities in [0.2, 1]·cmax,
// the paper's cmax, the default idle tick), GOMAXPROCS closed-loop
// callers (run them with -cpu 2), each op an update of a random node
// or, in the mixed run, 70% of them a NoCache query (demand in
// [0, 0.6]·cmax, k = 3). A change to the cluster's per-update cost —
// the state-update route, its message, the availability copy — shows
// here. ops/batch, queued/op and parked/op are per update.
func BenchmarkEngineUpdateCluster(b *testing.B) { benchClusterMix(b, 1) }

func BenchmarkEngineMixedCluster(b *testing.B) { benchClusterMix(b, 0.3) }

func benchClusterMix(b *testing.B, updateShare float64) {
	e, err := serve.New(serve.Config{Shards: 4, NodesPerShard: 2500, Seed: 5}, sharedGenFactory(5))
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	cmax, nodes := e.Config().CMax, e.Nodes()
	draw := func(rng *rand.Rand, v vector.Vec, lo, hi float64) {
		for d := range v {
			v[d] = cmax[d] * (lo + (hi-lo)*rng.Float64())
		}
	}
	before := clusterWriteCounts(e)
	var seed, updates atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(seed.Add(1), 2))
		v := vector.New(cmax.Dim())
		n := uint64(0)
		for pb.Next() {
			if rng.Float64() < updateShare {
				n++
				draw(rng, v, 0.2, 1)
				if err := e.Update(nodes[rng.IntN(len(nodes))], v, false); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			draw(rng, v, 0, 0.6)
			if _, err := e.Query(serve.QueryRequest{Demand: v, K: 3, NoCache: true}); err != nil {
				b.Error(err)
				return
			}
		}
		updates.Add(n)
	})
	b.StopTimer()
	if n := float64(updates.Load()); n > 0 {
		c := clusterWriteCounts(e)
		b.ReportMetric(n/float64(c[0]-before[0]), "ops/batch")
		b.ReportMetric(float64(c[1]-before[1])/n, "queued/op")
		b.ReportMetric(float64(c[2]-before[2])/n, "parked/op")
	}
}

// clusterWriteCounts sums the shards' batches, queued and parked
// writes.
func clusterWriteCounts(e *serve.Engine) (c [3]uint64) {
	for _, sh := range e.Stats().Shards {
		c[0] += sh.Batches
		c[1] += sh.WritesQueued
		c[2] += sh.WritesParked
	}
	return c
}
