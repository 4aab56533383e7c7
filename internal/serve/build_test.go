package serve_test

// The build contract of serve.New: the factory runs in shard order on
// the calling goroutine, never twice at once, while the backends it
// already made warm up and take their first snapshots concurrently;
// New returns only once every one of those has finished, on a factory
// error too.

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pidcan"
	"pidcan/internal/overlay"
	"pidcan/internal/serve"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// buildConfig is a small engine whose shards warm up before serving
// and never tick on their own while a test looks at them.
func buildConfig(shards int) serve.Config {
	return serve.Config{
		Shards:        shards,
		NodesPerShard: 120,
		Seed:          7,
		Warmup:        2 * sim.Minute,
		FlushInterval: time.Hour,
	}
}

// sharedGenFactory builds each shard's cluster and draws every node's
// availability from one generator shared across shards, as the
// benchmark's factory does: only a serial factory in shard order makes
// two engines from one seed equal.
func sharedGenFactory(seed uint64) serve.BackendFactory {
	rng := rand.New(rand.NewPCG(seed, 1))
	return func(i int, rc serve.Config) (serve.Backend, error) {
		c, err := pidcan.NewCluster(pidcan.ClusterConfig{
			Nodes: rc.NodesPerShard,
			CMax:  rc.CMax,
			Seed:  rc.Seed ^ uint64(i+1)*0x9e3779b97f4a7c15,
		})
		if err != nil {
			return nil, err
		}
		for _, id := range c.Nodes() {
			v := make(vector.Vec, rc.CMax.Dim())
			for k := range v {
				v[k] = rc.CMax[k] * (0.2 + 0.8*rng.Float64())
			}
			if err := c.SetAvailability(id, v); err != nil {
				return nil, err
			}
		}
		return c, nil
	}
}

// watchedBackend counts the calls New's shard builder makes into a
// backend and how many of them are running.
type watchedBackend struct {
	serve.Backend
	active, calls atomic.Int32
	// onStep, if set, runs inside the warm-up Step.
	onStep func()
}

func (w *watchedBackend) enter() func() {
	w.active.Add(1)
	w.calls.Add(1)
	return func() { w.active.Add(-1) }
}

func (w *watchedBackend) Step(d sim.Time) {
	defer w.enter()()
	if w.onStep != nil {
		w.onStep()
	}
	w.Backend.Step(d)
}

func (w *watchedBackend) Nodes() []overlay.NodeID {
	defer w.enter()()
	return w.Backend.Nodes()
}

func (w *watchedBackend) Availability(id overlay.NodeID) vector.Vec {
	defer w.enter()()
	return w.Backend.Availability(id)
}

func (w *watchedBackend) Now() sim.Time {
	defer w.enter()()
	return w.Backend.Now()
}

// TestBuildCallsTheFactoryInShardOrder: the factory is entered in shard
// order and never twice at once, and shard i's warm-up runs while the
// factory makes shard i+1's backend — each warm-up waits for that call
// to begin, which a build that finished every shard before making the
// next would never let happen.
func TestBuildCallsTheFactoryInShardOrder(t *testing.T) {
	const shards = 4
	var inside atomic.Int32
	var order []int
	entered := make([]chan struct{}, shards+1)
	for i := range entered {
		entered[i] = make(chan struct{})
	}
	close(entered[shards]) // the last warm-up has no next call to wait for
	base := sharedGenFactory(7)
	eng, err := serve.New(buildConfig(shards), func(i int, rc serve.Config) (serve.Backend, error) {
		if inside.Add(1) != 1 {
			t.Errorf("factory entered for shard %d while another call is running", i)
		}
		defer inside.Add(-1)
		order = append(order, i)
		close(entered[i])
		be, err := base(i, rc)
		if err != nil {
			return nil, err
		}
		return &watchedBackend{Backend: be, onStep: func() {
			select {
			case <-entered[i+1]:
			case <-time.After(10 * time.Second):
				t.Errorf("shard %d warmed up without the factory making shard %d", i, i+1)
			}
		}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if want := []int{0, 1, 2, 3}; !slices.Equal(order, want) {
		t.Errorf("factory entered for shards %v, want %v", order, want)
	}
}

// TestBuildFactoryErrorWaitsForEarlierShards: a factory that fails at
// shard k returns its error from New only once the shards before k are
// built, and nothing touches their backends after New has returned.
func TestBuildFactoryErrorWaitsForEarlierShards(t *testing.T) {
	const shards, failAt = 4, 2
	boom := errors.New("boom")
	base := sharedGenFactory(7)
	var made []*watchedBackend
	_, err := serve.New(buildConfig(shards), func(i int, rc serve.Config) (serve.Backend, error) {
		if i == failAt {
			return nil, boom
		}
		be, err := base(i, rc)
		if err != nil {
			return nil, err
		}
		w := &watchedBackend{Backend: be, onStep: func() { time.Sleep(30 * time.Millisecond) }}
		made = append(made, w)
		return w, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("New = %v, want the factory's error", err)
	}
	if len(made) != failAt {
		t.Fatalf("factory made %d backends before failing, want %d", len(made), failAt)
	}
	calls := make([]int32, len(made))
	for i, w := range made {
		if n := w.active.Load(); n != 0 {
			t.Errorf("shard %d: %d backend calls still running after New returned", i, n)
		}
		// A finished build stepped the warm-up, listed the nodes and
		// read each one's availability for the first snapshot.
		if calls[i] = w.calls.Load(); calls[i] < 2+int32(buildConfig(shards).NodesPerShard) {
			t.Errorf("shard %d: %d backend calls when New returned: its build had not finished", i, calls[i])
		}
	}
	time.Sleep(50 * time.Millisecond)
	for i, w := range made {
		if n := w.calls.Load(); n != calls[i] {
			t.Errorf("shard %d: backend called %d times after New returned", i, n-calls[i])
		}
	}
}

// TestBuildIsDeterministic: two engines built from one seed, with a
// factory sharing one generator across shards and every shard warming
// up concurrently with the next factory call, publish equal snapshots
// on every shard.
func TestBuildIsDeterministic(t *testing.T) {
	const shards = 4
	var snaps [2][]*serve.Snapshot
	for run := range snaps {
		eng, err := serve.New(buildConfig(shards), sharedGenFactory(11))
		if err != nil {
			t.Fatal(err)
		}
		for i := range shards {
			s, err := eng.Snapshot(i)
			if err != nil {
				t.Fatal(err)
			}
			snaps[run] = append(snaps[run], s)
		}
		eng.Close()
	}
	for i := range shards {
		a, b := snaps[0][i], snaps[1][i]
		if a.Shard != b.Shard || a.Version != b.Version || a.Taken != b.Taken {
			t.Errorf("shard %d: snapshots %d/v%d at %v and %d/v%d at %v", i, a.Shard, a.Version, a.Taken, b.Shard, b.Version, b.Taken)
		}
		if len(a.Records) != buildConfig(shards).NodesPerShard || !reflect.DeepEqual(a.Records, b.Records) {
			t.Errorf("shard %d: the two engines' snapshots hold different records (%d and %d)", i, len(a.Records), len(b.Records))
		}
	}
}
