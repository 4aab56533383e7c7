package repl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/serve/wire"
)

// ClientConfig parameterizes a follower's replication client.
type ClientConfig struct {
	// Primary is the primary's wire-protocol address (host:port).
	Primary string
	// DataDir is the follower's mirror directory — the same
	// directory its engine runs on.
	DataDir string
	// Shards is the engine's shard count (needed for the subscribe
	// before an engine exists).
	Shards int
	// Mount builds (or rebuilds) the follower engine from DataDir —
	// a serve.Config with Follower set and the same shape as the
	// primary. Called on first connect after any bootstrap, and
	// again whenever the client must resynchronize its in-memory
	// state from the mirror (the engine it replaces is closed first).
	Mount func() (*serve.Engine, error)
	// RetryMin/RetryMax bound the reconnect backoff (default
	// 100ms/3s).
	RetryMin, RetryMax time.Duration
	// DrainTimeout bounds how long Promote waits for in-flight
	// frames after the stream goes quiet (default 1s).
	DrainTimeout time.Duration
	// HeartbeatTimeout is how long a silent stream is trusted before
	// the client reconnects (default 5s; the primary heartbeats
	// every 500ms by default).
	HeartbeatTimeout time.Duration
	// Logf, when set, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

// dialTimeout bounds each connection attempt and the subscribe's
// answer.
const dialTimeout = 5 * time.Second

func (c ClientConfig) withDefaults() (ClientConfig, error) {
	if c.Primary == "" || c.DataDir == "" || c.Shards <= 0 || c.Mount == nil {
		return c, fmt.Errorf("repl: client needs Primary, DataDir, Shards and Mount")
	}
	if c.RetryMin <= 0 {
		c.RetryMin = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 3 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// Client is a follower's replication client: it keeps a stream open
// to the primary, applies every record through the engine's batch
// path, mirrors segment rotations and shipped checkpoints, and
// reports lag. Run drives it; Promote turns the follower into a
// primary.
type Client struct {
	cfg ClientConfig

	eng atomic.Pointer[serve.Engine]
	pos []serve.ReplPos // per shard, what the engine+mirror hold

	stopped   atomic.Bool
	promoting atomic.Bool
	promoteCh chan struct{}
	promOnce  sync.Once
	drained   chan struct{}
	done      chan struct{}

	connMu sync.Mutex
	conn   net.Conn
}

// errResync marks stream errors after which the client's in-memory
// engine may be ahead of its mirror (an apply half-landed): the
// client remounts from disk before reconnecting, so position and
// state agree again.
type errResync struct{ err error }

func (e errResync) Error() string { return e.err.Error() }
func (e errResync) Unwrap() error { return e.err }

// NewClient validates the configuration.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Client{
		cfg:       cfg,
		promoteCh: make(chan struct{}),
		drained:   make(chan struct{}),
		done:      make(chan struct{}),
	}, nil
}

// Engine returns the currently mounted follower engine (nil until
// the first successful mount — a cold follower with an empty mirror
// has no engine before its bootstrap).
func (c *Client) Engine() *serve.Engine { return c.eng.Load() }

// Run connects, streams and reconnects until Close or Promote.
// Blocking; run it on its own goroutine.
func (c *Client) Run() {
	defer close(c.done)
	backoff := c.cfg.RetryMin
	for !c.stopped.Load() {
		if c.promoting.Load() {
			break
		}
		streamed, err := c.runOnce()
		if streamed {
			// A healthy stream resets the backoff: the next blip
			// reconnects at RetryMin, not at a stale saturated wait.
			backoff = c.cfg.RetryMin
		}
		if c.stopped.Load() || c.promoting.Load() {
			break
		}
		if err != nil {
			c.cfg.Logf("repl: stream to %s: %v (retry in %v)", c.cfg.Primary, err, backoff)
			var rs errResync
			if errors.As(err, &rs) {
				if merr := c.remount(); merr != nil {
					c.cfg.Logf("repl: remount after stream error: %v", merr)
				}
			}
		}
		select {
		case <-c.promoteCh:
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > c.cfg.RetryMax {
			backoff = c.cfg.RetryMax
		}
	}
	close(c.drained)
}

// Close stops the client (the engine, if mounted, stays up serving
// reads).
func (c *Client) Close() {
	if !c.stopped.CompareAndSwap(false, true) {
		return
	}
	c.closeConn()
	c.promOnce.Do(func() { close(c.promoteCh) }) // wake the backoff sleep
	<-c.done
}

// Promote drains the replication stream and promotes the follower:
// buffered frames get DrainTimeout to apply (a dead primary's
// stream drains instantly), the stream stops for good, and the
// engine seals epoch+1 and opens for writes. Wire it to the engine
// with Engine.SetPromoter so POST /promote lands here.
func (c *Client) Promote() (uint64, error) {
	if c.stopped.Load() {
		return 0, fmt.Errorf("repl: client closed")
	}
	c.promoting.Store(true)
	c.promOnce.Do(func() { close(c.promoteCh) })
	<-c.drained
	eng := c.eng.Load()
	if eng == nil {
		return 0, fmt.Errorf("repl: nothing to promote: no local state yet (bootstrap never completed)")
	}
	epoch, err := eng.PromoteLocal()
	if err != nil {
		return 0, err
	}
	c.cfg.Logf("repl: promoted to primary, epoch %d", epoch)
	return epoch, nil
}

func (c *Client) setConn(conn net.Conn) {
	c.connMu.Lock()
	c.conn = conn
	c.connMu.Unlock()
}

func (c *Client) closeConn() {
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
}

// hasLocalState reports whether the mirror holds a checkpoint — the
// signal that a Mount can recover something.
func (c *Client) hasLocalState() bool {
	ck, err := wal.LoadLatest(c.cfg.DataDir)
	return err == nil && ck != nil
}

// remount resynchronizes the in-memory engine with the mirror: close
// and recover. Used after apply errors and bootstrap.
func (c *Client) remount() error {
	if e := c.eng.Swap(nil); e != nil {
		e.Close()
	}
	e, err := c.cfg.Mount()
	if err != nil {
		return err
	}
	c.eng.Store(e)
	return nil
}

// wipeMirror removes the replication-owned state from DataDir ahead
// of a fresh bootstrap: checkpoints (and temp files) plus the
// per-shard segment directories. Nothing else in the directory is
// touched.
func (c *Client) wipeMirror() error {
	ents, err := os.ReadDir(c.cfg.DataDir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"),
			strings.HasSuffix(name, ".ckpt.tmp"),
			ent.IsDir() && strings.HasPrefix(name, "shard-"):
			if err := os.RemoveAll(filepath.Join(c.cfg.DataDir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOnce is one connection lifetime: mount if possible, subscribe,
// bootstrap if told to, then stream until error/stop/promote.
// streamed reports whether the live stream was reached (subscription
// accepted) — the signal that resets the reconnect backoff.
func (c *Client) runOnce() (streamed bool, err error) {
	// A mirror with state serves (stale) reads even while the
	// primary is unreachable.
	if c.eng.Load() == nil && c.hasLocalState() {
		if err := c.remount(); err != nil {
			return false, fmt.Errorf("mount local mirror: %w", err)
		}
	}

	conn, err := net.DialTimeout("tcp", c.cfg.Primary, dialTimeout)
	if err != nil {
		return false, err
	}
	c.setConn(conn)
	defer func() {
		c.closeConn()
		if e := c.eng.Load(); e != nil {
			e.ReplReport(false, 0, 0)
		}
	}()
	wc := wire.NewClient(conn)

	sub := wire.ReplSubscribe{Shards: c.cfg.Shards}
	var epoch uint64
	if eng := c.eng.Load(); eng != nil {
		epoch = eng.Epoch()
		for i := 0; i < c.cfg.Shards; i++ {
			p, err := eng.ReplSyncPosition(i)
			if err != nil {
				return false, fmt.Errorf("local position: %w", err)
			}
			sub.Pos = append(sub.Pos, p)
		}
		c.pos = append(c.pos[:0], sub.Pos...)
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	if _, err := conn.Write(wire.AppendReplSubscribe(nil, 1, epoch, &sub)); err != nil {
		return false, err
	}
	r, err := wc.ReadResponse()
	if err != nil {
		return false, err
	}
	if r.Errored {
		e := r.Err
		return false, fmt.Errorf("primary refused the subscription: %w", &e)
	}
	if r.Op != wire.OpReplSubscribe {
		return false, fmt.Errorf("answer to the subscription is op %d", r.Op)
	}
	w, primaryEpoch := r.Welcome, r.Epoch
	if !w.Resume {
		if err := c.bootstrap(conn, wc); err != nil {
			return false, err
		}
	}

	eng := c.eng.Load()
	if eng == nil {
		return false, fmt.Errorf("no engine after the subscription")
	}
	if got := eng.Epoch(); got != primaryEpoch {
		return false, errResync{fmt.Errorf("mirror epoch %d, primary %d", got, primaryEpoch)}
	}
	eng.ReplReport(true, 0, 0)
	c.cfg.Logf("repl: streaming from %s (epoch %d; %d shards x %d nodes, seed %d, %d dims; %s)",
		c.cfg.Primary, primaryEpoch, w.Shards, w.NodesPerShard, w.Seed, w.Dims,
		map[bool]string{true: "resumed", false: "bootstrapped"}[w.Resume])
	return true, c.stream(conn, wc, eng, primaryEpoch)
}

// bootstrap wipes the mirror, installs the shipped checkpoint image
// and mounts the engine from it. The first frames after a bootstrap
// welcome must be the checkpoint's.
func (c *Client) bootstrap(conn net.Conn, wc *wire.Client) error {
	conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout * 4)) // checkpoint capture can take a moment
	r, err := wc.ReadResponse()
	if err != nil {
		return err
	}
	if r.Errored || r.Op != wire.OpReplCheckpoint {
		return fmt.Errorf("expected checkpoint image after bootstrap welcome, got op %d", r.Op)
	}
	data, err := readImage(wc, r)
	if err != nil {
		return err
	}
	ck, err := wal.Decode(data)
	if err != nil {
		return fmt.Errorf("shipped checkpoint: %w", err)
	}
	// Detach before closing, so Engine() readers see "not ready"
	// rather than a closed engine during the swap.
	if e := c.eng.Swap(nil); e != nil {
		e.Close()
	}
	if err := c.wipeMirror(); err != nil {
		return err
	}
	if _, err := wal.SaveRaw(c.cfg.DataDir, ck.Seq, data); err != nil {
		return err
	}
	if err := c.remount(); err != nil {
		return fmt.Errorf("mount bootstrapped mirror: %w", err)
	}
	c.pos = c.pos[:0]
	for _, st := range ck.ShardStates {
		c.pos = append(c.pos, serve.ReplPos{Seg: st.FirstSeg})
	}
	c.cfg.Logf("repl: bootstrapped from checkpoint %d (%d bytes, epoch %d)", ck.Seq, len(data), ck.Epoch)
	return nil
}

// readImage assembles a checkpoint image from its chunks, the first
// already read; the rest follow it back to back.
func readImage(wc *wire.Client, first *wire.Response) ([]byte, error) {
	ck, epoch := first.Checkpoint, first.Epoch
	img := append([]byte(nil), ck.Data...)
	for uint64(len(img)) < ck.Size {
		r, err := wc.ReadResponse()
		if err != nil {
			return nil, err
		}
		if c := r.Checkpoint; r.Errored || r.Op != wire.OpReplCheckpoint || r.Epoch != epoch ||
			c.Seq != ck.Seq || c.Size != ck.Size || uint64(len(img)+len(c.Data)) > ck.Size {
			return nil, fmt.Errorf("checkpoint %d broken off after %d of %d bytes by op %d", ck.Seq, len(img), ck.Size, r.Op)
		}
		img = append(img, r.Checkpoint.Data...)
	}
	return img, nil
}

// lag sums how far the primary's positions (from a heartbeat) run
// ahead of ours.
func (c *Client) lag(primary []serve.ReplPos) int64 {
	var lag int64
	for i := range primary {
		if i >= len(c.pos) {
			break
		}
		p, l := primary[i], c.pos[i]
		switch {
		case p.Seg == l.Seg && p.Pos > l.Pos:
			lag += int64(p.Pos - l.Pos)
		case p.Seg > l.Seg:
			// Rotations ahead of us: count the visible tail; the
			// intermediate segments' counts are unknown here.
			lag += int64(p.Pos)
		}
	}
	return lag
}

// stream applies frames until the connection dies, the client stops,
// or a promotion drains it.
func (c *Client) stream(conn net.Conn, wc *wire.Client, eng *serve.Engine, epoch uint64) error {
	drainDeadline := time.Time{}
	var r *wire.Response // a frame gather read but did not merge
	for {
		if c.stopped.Load() {
			return nil
		}
		if r == nil {
			if c.promoting.Load() {
				// Drain: give in-flight frames a short idle window,
				// then stop for good.
				if drainDeadline.IsZero() {
					drainDeadline = time.Now().Add(c.cfg.DrainTimeout)
				}
				if time.Now().After(drainDeadline) {
					return nil
				}
				conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			} else {
				conn.SetReadDeadline(time.Now().Add(c.cfg.HeartbeatTimeout))
			}
			var err error
			if r, err = wc.ReadResponse(); err != nil {
				if c.promoting.Load() {
					return nil // drained: nothing readable within the window
				}
				return err
			}
		}
		if r.Errored {
			e := r.Err
			return fmt.Errorf("primary ended the stream: %w", &e)
		}
		if r.Epoch != epoch {
			// The fencing belt: a deposed primary's frames never apply.
			return errResync{fmt.Errorf("op %d frame of epoch %d on an epoch-%d stream", r.Op, r.Epoch, epoch)}
		}
		switch r.Op {
		case wire.OpReplRecords:
			frames, next, err := gather(wc, r)
			for _, f := range frames {
				if err := c.applyRecords(eng, epoch, f); err != nil {
					return err
				}
			}
			if err != nil {
				return err
			}
			r = next
			continue
		case wire.OpReplCheckpoint:
			data, err := readImage(wc, r)
			if err != nil {
				return err
			}
			ck, err := eng.ReplInstallCheckpoint(epoch, data)
			if err != nil {
				return errResync{err}
			}
			for i, st := range ck.ShardStates {
				if i < len(c.pos) && c.pos[i].Seg < st.FirstSeg {
					c.pos[i] = serve.ReplPos{Seg: st.FirstSeg}
				}
			}
		case wire.OpReplHeartbeat:
			lagMS := time.Since(time.Unix(0, r.Heartbeat.Sent)).Milliseconds()
			eng.ReplReport(true, c.lag(r.Heartbeat.Pos), max(lagMS, 0))
		default:
			return fmt.Errorf("unexpected op %d mid-stream", r.Op)
		}
		r = nil
	}
}

// maxGather bounds the records one gather merges: the engine's default
// MaxBatch, so a shard still drains a merged frame as one batch.
const maxGather = 256

// gather merges into first the update frames that have already started
// arriving behind it, one merged frame per shard, and returns the
// frames to apply in order. A follower applies one frame at a time and
// every apply costs its shard a mirror write and a snapshot publication
// (cheap per dirty node, but with a directory rebuild whatever the
// batch size), so a follower that has fallen behind pays them once per
// shard for its whole backlog instead of once per primary batch, and
// catches up the faster the further behind it is. Only updates merge:
// they touch nothing outside their shard, so applying one shard's run
// ahead of another shard's earlier frame changes no outcome, while
// joins, leaves and takes move the engine-wide forwarding table and
// stay where the stream put them. Gather never waits for a frame that
// has not started arriving; it returns the first frame it read and
// cannot merge — joins and the rest, a rotation or a gap, another op
// or epoch — as next, for the stream loop to handle in stream order,
// and a read error after the frames gathered before it.
func gather(wc *wire.Client, first *wire.Response) (frames []wire.ReplRecords, next *wire.Response, err error) {
	frames = []wire.ReplRecords{first.Records}
	if !updatesOnly(first.Records.Recs) {
		return frames, nil, nil
	}
	epoch := first.Epoch
	at := map[int]int{first.Records.Shard: 0} // shard -> its frame in frames
	for n := len(first.Records.Recs); n < maxGather && wc.Buffered() > 0; {
		r, err := wc.ReadResponse()
		if err != nil {
			return frames, nil, err
		}
		f := r.Records
		if r.Errored || r.Op != wire.OpReplRecords || r.Epoch != epoch || !updatesOnly(f.Recs) {
			return frames, r, nil
		}
		if i, seen := at[f.Shard]; !seen {
			at[f.Shard] = len(frames)
			frames = append(frames, f)
		} else if g := &frames[i]; f.Seg == g.Seg && f.Pos == g.Pos+uint64(len(g.Recs)) {
			g.Recs = append(g.Recs, f.Recs...)
		} else {
			return frames, r, nil
		}
		n += len(f.Recs)
	}
	return frames, nil, nil
}

func updatesOnly(recs []wal.Record) bool {
	for i := range recs {
		if recs[i].Kind != wal.KindUpdate {
			return false
		}
	}
	return true
}

// applyRecords verifies frame continuity, mirrors rotations, and
// applies one record batch through the engine.
func (c *Client) applyRecords(eng *serve.Engine, epoch uint64, f wire.ReplRecords) error {
	if f.Shard < 0 || f.Shard >= len(c.pos) {
		return fmt.Errorf("record frame for shard %d of %d", f.Shard, len(c.pos))
	}
	cur := c.pos[f.Shard]
	if f.Seg > cur.Seg {
		if f.Pos != 0 {
			return errResync{fmt.Errorf("shard %d jumped to segment %d at pos %d", f.Shard, f.Seg, f.Pos)}
		}
		if err := eng.ReplRotate(f.Shard, f.Seg); err != nil {
			return errResync{err}
		}
		cur = serve.ReplPos{Seg: f.Seg}
	}
	if f.Seg < cur.Seg || f.Pos != cur.Pos {
		return errResync{fmt.Errorf("shard %d stream at seg %d pos %d, mirror at seg %d pos %d",
			f.Shard, f.Seg, f.Pos, cur.Seg, cur.Pos)}
	}
	if err := eng.ReplApply(f.Shard, epoch, f.Recs); err != nil {
		return errResync{err}
	}
	c.pos[f.Shard] = serve.ReplPos{Seg: f.Seg, Pos: f.Pos + uint64(len(f.Recs))}
	return nil
}
