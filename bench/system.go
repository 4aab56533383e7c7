package bench

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/serve/repl"
	"pidcan/internal/serve/wire"
)

const shards = 4

// spec describes one workload. Populations are per shard; every
// engine has four shards.
type spec struct {
	name     string
	why      string
	perShard int
	mix      mix
	cached   bool // queries go through the cache (else NoCache)
	wire     bool // loopback TCP, pipelined; closed phase then paced phase
	durable  bool // durable primary streaming to one follower
	profiles int  // Zipf-popular demand profiles (0: fresh random demands)
	paced    int  // open-loop rate of the paced phase, req/s
}

var workloads = []spec{
	{
		name:     "read_uncached_100k",
		why:      "index search and engine merge/rank do nearly all the work; cache, wal, wire and the write queue do none",
		perShard: 25_000,
	},
	{
		name:     "mixed_write_10k",
		why:      "70% uncached queries, 30% updates: index publication beside search, shard batching, backend apply/step",
		perShard: 2_500,
		mix:      mix{update: 0.30},
	},
	{
		name:     "wire_cached_1k",
		why:      "loopback wire protocol at depth 16 over a Zipf-popular cacheable demand set: wire codec/flush and cache work, index nearly idle",
		perShard: 250,
		mix:      mix{update: 0.02},
		cached:   true,
		wire:     true,
		profiles: 2048,
		paced:    50_000,
	},
	{
		name:     "durable_repl_write_10k",
		why:      "76% update, 2% join, 2% leave, 20% query on a durable primary streaming to a follower: wal append+fsync and repl fan-out in the ack path",
		perShard: 2_500,
		mix:      mix{update: 0.76, join: 0.02, leave: 0.02},
		durable:  true,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// engineConfig is what cmd/pidcan-serve's flag defaults resolve to,
// apart from shape, seed and Warmup 0: the one value its flags set
// away from the serve.Config zero defaults is the adaptive cache
// window.
func engineConfig(perShard int, seed uint64) serve.Config {
	return serve.Config{
		Shards:          shards,
		NodesPerShard:   perShard,
		Seed:            seed,
		CacheAdaptEvery: 4096,
	}
}

// seededFactory builds each shard's cluster the way pidcan.NewEngine
// does and publishes a random availability in [0.2, 1]·cmax per node
// straight into it, so the first snapshot already carries the whole
// population (seeding through Engine.Update would republish an
// O(population) snapshot per write). Every call returns a factory
// with a fresh generator: engines built from the same seed — primary,
// follower, recovered copy — start from identical state.
func seededFactory(seed uint64) serve.BackendFactory {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c4))
	return func(i int, rc serve.Config) (serve.Backend, error) {
		return seededCluster(i, rc, rng)
	}
}

func seededCluster(i int, rc serve.Config, rng *rand.Rand) (*pidcan.Cluster, error) {
	c, err := pidcan.NewCluster(pidcan.ClusterConfig{
		Nodes: rc.NodesPerShard,
		CMax:  rc.CMax,
		Seed:  rc.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
		Core:  rc.Core,
		Net:   rc.Net,
	})
	if err != nil {
		return nil, err
	}
	for _, id := range c.Nodes() {
		if err := c.SetAvailability(id, randVec(rng, rc.CMax, 0.2, 1)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// system is one workload's program under test: the engine plus, per
// workload, its wire edge or its replication pair.
type system struct {
	cfg      serve.Config
	eng      *serve.Engine
	ws       *wire.Server
	wireAddr string
	rs       *repl.Server
	rc       *repl.Client
	dirs     []string
	wg       sync.WaitGroup // the Serve/Run goroutines
}

// newSystem builds, seeds and starts the workload's program and
// returns once it has answered a first query. tmp is where a durable
// workload keeps its data directories.
func newSystem(sp spec, seed uint64, tmp string) (_ *system, err error) {
	s := &system{cfg: engineConfig(sp.perShard, seed)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if sp.durable {
		dir, err := os.MkdirTemp(tmp, "primary-")
		if err != nil {
			return nil, err
		}
		s.dirs = append(s.dirs, dir)
		s.cfg.DataDir = dir
	}
	if s.eng, err = serve.New(s.cfg, seededFactory(seed)); err != nil {
		return nil, err
	}
	s.cfg = s.eng.Config()
	if sp.wire {
		s.ws = wire.NewServer(func() serve.Service { return s.eng }, wire.ServerConfig{})
		s.eng.SetWireStats(s.ws.Stats)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.wireAddr = ln.Addr().String()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			_ = s.ws.Serve(ln) // returns once Close shuts the listener
		}()
	}
	if sp.durable {
		if err := s.startFollower(seed, tmp); err != nil {
			return nil, err
		}
	}
	_, err = s.eng.Query(serve.QueryRequest{Demand: make([]float64, len(s.cfg.CMax)), K: 1, NoCache: true})
	return s, err
}

// startFollower attaches one follower over loopback and waits until
// its stream is live.
func (s *system) startFollower(seed uint64, tmp string) (err error) {
	if s.rs, err = repl.NewServer(s.eng, repl.ServerConfig{}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = s.rs.Serve(ln) // returns once Close shuts the listener
	}()
	mirror, err := os.MkdirTemp(tmp, "mirror-")
	if err != nil {
		return err
	}
	s.dirs = append(s.dirs, mirror)
	fcfg := s.cfg
	fcfg.DataDir, fcfg.Follower, fcfg.PrimaryAddr = mirror, true, ln.Addr().String()
	s.rc, err = repl.NewClient(repl.ClientConfig{
		Primary: fcfg.PrimaryAddr,
		DataDir: mirror,
		Shards:  shards,
		Mount:   func() (*serve.Engine, error) { return serve.New(fcfg, seededFactory(seed)) },
	})
	if err != nil {
		return err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.rc.Run()
	}()
	return waitFor(10*time.Second, "follower to connect", func() bool {
		f := s.rc.Engine()
		return f != nil && f.Stats().ReplConnected
	})
}

// follower is the follower's engine (nil without replication).
func (s *system) follower() *serve.Engine {
	if s.rc == nil {
		return nil
	}
	return s.rc.Engine()
}

// drainFollower waits until the follower has applied every write the
// primary acknowledged.
func (s *system) drainFollower() error {
	p := s.eng.Stats()
	return waitFor(30*time.Second, "follower to drain", func() bool {
		f := s.follower().Stats()
		return f.Updates == p.Updates && f.Joins == p.Joins && f.Leaves == p.Leaves
	})
}

// recoverCopy opens a fresh engine on a copy of the primary's data
// directory, as a restart after a crash would, and reports how long
// recovery took.
func (s *system) recoverCopy(seed uint64, tmp string) (*serve.Engine, time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "recovered-")
	if err != nil {
		return nil, 0, err
	}
	s.dirs = append(s.dirs, dir)
	if err := os.CopyFS(dir, os.DirFS(s.cfg.DataDir)); err != nil {
		return nil, 0, fmt.Errorf("copy data dir: %w", err)
	}
	cfg := s.cfg
	cfg.DataDir = dir
	start := time.Now()
	eng, err := serve.New(cfg, seededFactory(cfg.Seed))
	return eng, time.Since(start), err
}

// close stops everything newSystem started, waits for its goroutines
// and removes its directories.
func (s *system) close() error {
	var errs []error
	if s.rc != nil {
		f := s.rc.Engine()
		s.rc.Close()
		if f != nil {
			errs = append(errs, f.Close())
		}
	}
	if s.rs != nil {
		errs = append(errs, s.rs.Close())
	}
	if s.ws != nil {
		_ = s.ws.Close() // only ever reports "already closed"
	}
	if s.eng != nil {
		errs = append(errs, s.eng.Close())
	}
	s.wg.Wait()
	for _, d := range s.dirs {
		errs = append(errs, os.RemoveAll(d))
	}
	return errors.Join(errs...)
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// tmpRoot makes the directory durable workloads keep data under.
func tmpRoot(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}

// resultPath names a run's result file.
func resultPath(outDir, workload string, seed uint64, trace bool, ext string) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.%s", workload, seed, t, ext))
}
