// Command pidcan-serve runs the concurrent PID-CAN query service:
// a sharded snapshot engine (internal/serve) behind an HTTP JSON
// API.
//
//	pidcan-serve -addr :8080 -shards 4 -nodes 64 -seed 1
//
// Endpoints: POST /query /update /join /leave /rebalance
// /checkpoint /promote, GET /nodes /stats /healthz. With -data-dir
// the service is durable: every write lands in a per-shard op-log
// before it is acknowledged, a clean shutdown writes a checkpoint,
// and the next start with the same -data-dir (and shard/seed shape)
// recovers every join, update and migration it ever acknowledged —
// kill -9 included, minus nothing but unacknowledged requests.
// A consistent query ({"consistent":true}) runs the paper's protocol
// on one shard, the shards taken round-robin.
// With -rebalance-interval set, an adaptive rebalancer migrates
// nodes between shards whenever the max/min shard population skews
// past 1.25 (joins targeted with {"shard":S} are how skew happens on
// purpose). Drive it with cmd/pidcan-loadgen — its
// -skew flag zipf-concentrates joins and updates onto a few shards
// — to watch populations converge in /stats.
//
// Wire protocol: -wire-addr adds the compact binary serving edge
// (internal/serve/wire) next to the JSON API — persistent TCP
// connections, pipelined in-order responses, epoch-fenced writes.
// JSON stays up as the debug surface; drive the binary edge with
// cmd/pidcan-loadgen -proto wire.
//
// Replication: a durable primary streams its op-log to followers on
// its -wire-addr listener — one port for queries, writes and the
// stream. A second process started with -role follower -primary
// host:wireport mirrors it and serves read-only traffic (writes 503,
// and wire writes answer CodeReadOnly, naming that address). When the
// primary dies, POST /promote on the follower seals a new epoch and
// opens it for writes, and the follower's own -wire-addr listener
// starts serving the stream to the next generation of followers. The
// shard/seed shape must match the primary's.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/vector"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		shards   = flag.Int("shards", 4, "number of cluster shards")
		nodes    = flag.Int("nodes", 64, "initial nodes per shard")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		warmup   = flag.Duration("warmup", 30*time.Minute, "simulated warmup per shard (state updates + index diffusion settle)")
		flush    = flag.Duration("flush", 100*time.Millisecond, "idle-tick cadence: each tick steps the shard's simulation up to elapsed wall time and republishes its snapshot")
		populate = flag.Bool("populate", true, "publish a random initial availability per node")
		rebal    = flag.Duration("rebalance-interval", 0, "adaptive shard-rebalancer cadence (0 disables; POST /rebalance still triggers single passes)")
		dataDir  = flag.String("data-dir", "", "durable state directory (op-log + checkpoints); empty serves purely in-memory")
		ckptEvry = flag.Duration("checkpoint-every", 0, "background checkpoint cadence (0: only on shutdown and POST /checkpoint)")
		fsync    = flag.Int("fsync-every", 1, "fsync the op-log once per N applied write batches (negative: never fsync)")
		role     = flag.String("role", "primary", "serving role: primary, or follower (read replica of -primary)")
		primary  = flag.String("primary", "", "primary's wire-protocol address host:port (follower role)")
		wireAddr = flag.String("wire-addr", "", "binary wire-protocol listen address (persistent TCP, pipelined; with -data-dir it also streams the op-log to followers, on a follower from promotion on; empty disables)")
	)
	flag.Parse()

	cfg := pidcan.EngineConfig{
		Shards:            *shards,
		NodesPerShard:     *nodes,
		Seed:              *seed,
		Warmup:            pidcan.Time(warmup.Microseconds()),
		FlushInterval:     *flush,
		RebalanceInterval: *rebal,
		DataDir:           *dataDir,
		CheckpointEvery:   *ckptEvry,
		FsyncEvery:        *fsync,
	}

	var h dynHandler
	h.capture = pidcan.NewCaptureHandler(h.engine)

	// The wire edge starts before the engine: both edges answer
	// serve.ErrNotReady until the role setup mounts one through h.set
	// (exactly the follower re-bootstrap contract). JSON/HTTP stays up
	// as the debug surface next to it.
	var ws *pidcan.WireServer
	if *wireAddr != "" {
		ws = pidcan.NewWireServer(h.engine, pidcan.WireServerConfig{})
		h.wire = ws
		ln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("wire protocol on %s", *wireAddr)
		go func() {
			if err := ws.Serve(ln); err != nil {
				log.Printf("wire server: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: &h}
	stop := func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down")
		if ws != nil {
			ws.Close()
		}
		srv.Close()
	}

	// shutdown runs after the HTTP listener stops: it flushes and
	// fsyncs the op-log and (primary) writes the clean-shutdown
	// checkpoint — without it a graceful exit could drop acked
	// writes still buffered under -fsync-every > 1.
	var shutdown func()
	switch *role {
	case "follower":
		shutdown = runFollower(cfg, &h, *primary, ws)
	case "primary":
		shutdown = runPrimary(cfg, &h, *populate, *seed, ws)
	default:
		log.Fatalf("unknown -role %q (want primary or follower)", *role)
	}

	go stop()
	log.Printf("serving on %s (role %s)", *addr, *role)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	shutdown()
}

// dynHandler routes HTTP to the current engine — which a follower
// can swap when a re-bootstrap rebuilds it.
type dynHandler struct {
	mu      sync.RWMutex
	eng     *pidcan.Engine
	h       http.Handler
	wire    *pidcan.WireServer
	capture http.Handler
}

func (d *dynHandler) set(e *pidcan.Engine) {
	d.mu.Lock()
	d.eng, d.h = e, pidcan.NewHandler(e)
	w := d.wire
	d.mu.Unlock()
	if w != nil {
		e.SetWireStats(w.Stats)
	}
}

// engine is the wire server's view of the current engine (nil until
// the first set; both edges answer serve.ErrNotReady meanwhile).
func (d *dynHandler) engine() *pidcan.Engine {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.eng
}

func (d *dynHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// The capture control surface rides next to the engine API and
	// follows engine swaps through the same getter the wire edge uses.
	if strings.HasPrefix(r.URL.Path, "/capture/") {
		d.capture.ServeHTTP(w, r)
		return
	}
	d.mu.RLock()
	h := d.h
	d.mu.RUnlock()
	if h == nil {
		serve.WriteError(w, "", serve.ErrNotReady)
		return
	}
	h.ServeHTTP(w, r)
}

// runPrimary builds the engine and, when it is durable and ws serves
// the wire protocol, streams its op-log to the followers that
// subscribe there.
func runPrimary(cfg pidcan.EngineConfig, h *dynHandler, populate bool, seed uint64, ws *pidcan.WireServer) (shutdown func()) {
	log.Printf("building engine: %d shard(s) x %d nodes, seed %d", cfg.Shards, cfg.NodesPerShard, cfg.Seed)
	start := time.Now()
	eng, err := pidcan.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("engine up in %v (epoch %d)", time.Since(start).Round(time.Millisecond), eng.Epoch())
	if cfg.RebalanceInterval > 0 {
		log.Printf("rebalancer on: every %v", cfg.RebalanceInterval)
	}

	warm := false
	if cfg.DataDir != "" {
		st := eng.Stats()
		warm = st.WarmStart
		if warm {
			log.Printf("warm restart from %s: %d nodes, %d log records replayed in %.1fms",
				cfg.DataDir, st.TotalNodes, st.RecoveredRecords, st.LastRecoveryMS)
		} else {
			log.Printf("durable serving: op-log + checkpoints under %s (fsync every %d batches)",
				cfg.DataDir, cfg.FsyncEvery)
		}
	}

	// A warm restart already carries its recovered availabilities;
	// re-populating would overwrite real state with synthetic data.
	if populate && !warm {
		if err := populateAvailability(eng, seed); err != nil {
			log.Fatal(err)
		}
	}
	rs := replicate(eng, ws)
	h.set(eng)
	return func() {
		if rs != nil {
			rs.Close()
		}
		if err := eng.Close(); err != nil {
			log.Printf("engine close: %v", err)
		}
	}
}

// runFollower mirrors a primary: the replication client owns the
// engine lifecycle (bootstrap can rebuild it), POST /promote drains
// and seals, and once promoted this node streams its own op-log on
// ws.
func runFollower(cfg pidcan.EngineConfig, h *dynHandler, primary string, ws *pidcan.WireServer) (shutdown func()) {
	if primary == "" || cfg.DataDir == "" {
		log.Fatal("follower role needs -primary and -data-dir")
	}
	cfg.Follower = true
	cfg.PrimaryAddr = primary

	var cl *pidcan.ReplClient
	var promoted atomic.Bool
	mount := func() (*pidcan.Engine, error) {
		eng, err := pidcan.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		eng.SetPromoter(func() (uint64, error) {
			epoch, err := cl.Promote()
			if err != nil {
				return 0, err
			}
			if promoted.CompareAndSwap(false, true) {
				replicate(cl.Engine(), ws)
			}
			return epoch, nil
		})
		h.set(eng)
		st := eng.Stats()
		log.Printf("follower engine up: %d nodes, epoch %d (warm=%v)", st.TotalNodes, st.Epoch, st.WarmStart)
		return eng, nil
	}
	cl, err := pidcan.NewReplClient(pidcan.ReplClientConfig{
		Primary: primary,
		DataDir: cfg.DataDir,
		Shards:  cfg.Shards,
		Mount:   mount,
		Logf:    log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("follower of %s: mirroring into %s", primary, cfg.DataDir)
	go cl.Run()
	return func() {
		cl.Close()
		if eng := cl.Engine(); eng != nil {
			if err := eng.Close(); err != nil {
				log.Printf("engine close: %v", err)
			}
		}
	}
}

// replicate streams a durable engine's op-log to the followers that
// subscribe on ws (nil: not durable, or no wire listener).
func replicate(eng *pidcan.Engine, ws *pidcan.WireServer) *pidcan.ReplServer {
	if ws == nil || eng.Config().DataDir == "" {
		return nil
	}
	rs, err := pidcan.NewReplServer(eng, pidcan.ReplServerConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ws.SetReplSource(rs)
	log.Print("replicating to followers on the wire listener")
	return rs
}

// populateAvailability gives every node a deterministic pseudo-random
// availability in [0.2, 1.0]·cmax so queries have something to find.
func populateAvailability(eng *pidcan.Engine, seed uint64) error {
	cmax := eng.Config().CMax
	rng := rand.New(rand.NewPCG(seed, 0xda7a))
	n := 0
	for _, id := range eng.Nodes() {
		avail := make(vector.Vec, cmax.Dim())
		for k := range avail {
			avail[k] = cmax[k] * (0.2 + 0.8*rng.Float64())
		}
		if err := eng.Update(id, avail, true); err != nil {
			return fmt.Errorf("populate %v: %w", id, err)
		}
		n++
	}
	log.Printf("populated %d nodes", n)
	return nil
}
