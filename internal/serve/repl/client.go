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
)

// ClientConfig parameterizes a follower's replication client.
type ClientConfig struct {
	// Primary is the primary's replication address (host:port).
	Primary string
	// DataDir is the follower's mirror directory — the same
	// directory its engine runs on.
	DataDir string
	// Shards is the engine's shard count (needed for the handshake
	// before an engine exists).
	Shards int
	// Mount builds (or rebuilds) the follower engine from DataDir —
	// a serve.Config with Follower set and the same shape as the
	// primary. Called on first connect after any bootstrap, and
	// again whenever the client must resynchronize its in-memory
	// state from the mirror.
	Mount func() (*serve.Engine, error)
	// Unmount tears an engine down before a re-bootstrap wipes the
	// mirror (default: Engine.Close).
	Unmount func(*serve.Engine)
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
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

func (c ClientConfig) withDefaults() (ClientConfig, error) {
	if c.Primary == "" || c.DataDir == "" || c.Shards <= 0 || c.Mount == nil {
		return c, fmt.Errorf("repl: client needs Primary, DataDir, Shards and Mount")
	}
	if c.Unmount == nil {
		c.Unmount = func(e *serve.Engine) { e.Close() }
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
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
	defer func() {
		if e := c.eng.Load(); e != nil {
			e.ReplReport(false, 0)
		}
	}()
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
		c.cfg.Unmount(e)
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

// runOnce is one connection lifetime: mount if possible, handshake,
// bootstrap if told to, then stream until error/stop/promote.
// streamed reports whether the live stream was reached (handshake
// accepted) — the signal that resets the reconnect backoff.
func (c *Client) runOnce() (streamed bool, err error) {
	// A mirror with state serves (stale) reads even while the
	// primary is unreachable.
	if c.eng.Load() == nil && c.hasLocalState() {
		if err := c.remount(); err != nil {
			return false, fmt.Errorf("mount local mirror: %w", err)
		}
	}

	conn, err := net.DialTimeout("tcp", c.cfg.Primary, c.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	c.setConn(conn)
	defer func() {
		c.closeConn()
		if e := c.eng.Load(); e != nil {
			e.ReplReport(false, c.lag(nil))
		}
	}()
	pc := newPconn(conn)

	h := hello{Shards: c.cfg.Shards, Bootstrap: true}
	if eng := c.eng.Load(); eng != nil {
		h.Bootstrap = false
		h.Epoch = eng.Epoch()
		h.Pos = make([]serve.ReplPos, c.cfg.Shards)
		for i := range h.Pos {
			p, err := eng.ReplSyncPosition(i)
			if err != nil {
				return false, fmt.Errorf("local position: %w", err)
			}
			h.Pos[i] = p
		}
		c.pos = append(c.pos[:0], h.Pos...)
	}
	pc.setWriteDeadline(c.cfg.DialTimeout)
	if err := pc.writeFrame(encodeHello(h)); err != nil {
		return false, err
	}
	if err := pc.flush(); err != nil {
		return false, err
	}
	pc.setReadDeadline(c.cfg.DialTimeout)
	payload, err := pc.readFrame(maxCtrlFrame)
	if err != nil {
		return false, err
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return false, err
	}
	switch w.Status {
	case StResume:
		// Stream continues at our positions.
	case StBootstrap:
		if err := c.bootstrap(pc, w); err != nil {
			return false, err
		}
	case StFenced:
		return false, fmt.Errorf("primary at %s is deposed (its epoch %d is behind ours %d)",
			c.cfg.Primary, w.Epoch, h.Epoch)
	case StNotPrimary:
		return false, fmt.Errorf("%s is not serving as a primary", c.cfg.Primary)
	default:
		return false, fmt.Errorf("primary refused replication (status %d; shards %d vs %d)",
			w.Status, c.cfg.Shards, w.Shards)
	}

	eng := c.eng.Load()
	if eng == nil {
		return false, fmt.Errorf("no engine after handshake")
	}
	if got := eng.Epoch(); got != w.Epoch {
		return false, errResync{fmt.Errorf("mirror epoch %d, primary %d", got, w.Epoch)}
	}
	eng.ReplReport(true, 0)
	c.cfg.Logf("repl: streaming from %s (epoch %d, %s)", c.cfg.Primary, w.Epoch,
		map[byte]string{StResume: "resumed", StBootstrap: "bootstrapped"}[w.Status])
	return true, c.stream(pc, eng, w.Epoch)
}

// bootstrap wipes the mirror, installs the shipped checkpoint image
// and mounts the engine from it. The first frame after a bootstrap
// welcome must be the checkpoint.
func (c *Client) bootstrap(pc *pconn, w welcome) error {
	pc.setReadDeadline(c.cfg.HeartbeatTimeout * 4) // checkpoint capture can take a moment
	payload, err := pc.readFrame(maxCkptFrame)
	if err != nil {
		return err
	}
	x := &r{buf: payload}
	if t := x.u8(); t != msgCheckpoint {
		return fmt.Errorf("expected checkpoint image after bootstrap welcome, got message %d", t)
	}
	f, err := decodeCkptFrame(x)
	if err != nil {
		return err
	}
	ck, err := wal.Decode(f.Data)
	if err != nil {
		return fmt.Errorf("shipped checkpoint: %w", err)
	}
	// Detach before closing, so Engine() readers see "not ready"
	// rather than a closed engine during the swap.
	if e := c.eng.Swap(nil); e != nil {
		c.cfg.Unmount(e)
	}
	if err := c.wipeMirror(); err != nil {
		return err
	}
	if _, err := wal.SaveRaw(c.cfg.DataDir, ck.Seq, f.Data); err != nil {
		return err
	}
	if err := c.remount(); err != nil {
		return fmt.Errorf("mount bootstrapped mirror: %w", err)
	}
	c.pos = c.pos[:0]
	for _, st := range ck.ShardStates {
		c.pos = append(c.pos, serve.ReplPos{Seg: st.FirstSeg})
	}
	c.cfg.Logf("repl: bootstrapped from checkpoint %d (%d bytes, epoch %d)", ck.Seq, len(f.Data), ck.Epoch)
	return nil
}

// lag sums how far the primary's positions (from the last heartbeat)
// run ahead of ours; nil reuses nothing and reports 0.
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
func (c *Client) stream(pc *pconn, eng *serve.Engine, epoch uint64) error {
	drainDeadline := time.Time{}
	for {
		if c.stopped.Load() {
			return nil
		}
		if c.promoting.Load() {
			// Drain: give in-flight frames a short idle window, then
			// stop for good.
			if drainDeadline.IsZero() {
				drainDeadline = time.Now().Add(c.cfg.DrainTimeout)
			}
			if time.Now().After(drainDeadline) {
				return nil
			}
			pc.setReadDeadline(200 * time.Millisecond)
		} else {
			pc.setReadDeadline(c.cfg.HeartbeatTimeout)
		}
		payload, err := pc.readFrame(maxCkptFrame)
		if err != nil {
			if c.promoting.Load() {
				return nil // drained: nothing readable within the window
			}
			return err
		}
		x := &r{buf: payload}
		switch t := x.u8(); t {
		case msgRecords:
			f, err := decodeRecordsFrame(x)
			if err != nil {
				return err
			}
			for _, g := range gather(pc, f) {
				if err := c.applyRecords(eng, epoch, g); err != nil {
					return err
				}
			}
		case msgCheckpoint:
			f, err := decodeCkptFrame(x)
			if err != nil {
				return err
			}
			if f.Epoch != epoch {
				return errResync{fmt.Errorf("checkpoint epoch %d on an epoch-%d stream", f.Epoch, epoch)}
			}
			if err := eng.ReplInstallCheckpoint(f.Epoch, f.Data); err != nil {
				return errResync{err}
			}
			for i, fs := range f.FirstSegs {
				if i < len(c.pos) && c.pos[i].Seg < fs {
					c.pos[i] = serve.ReplPos{Seg: fs}
				}
			}
		case msgHeartbeat:
			hb, err := decodeHeartbeat(x)
			if err != nil {
				return err
			}
			if hb.Epoch != epoch {
				return errResync{fmt.Errorf("heartbeat epoch %d on an epoch-%d stream", hb.Epoch, epoch)}
			}
			eng.ReplReport(true, c.lag(hb.Pos))
		default:
			return fmt.Errorf("unexpected message %d mid-stream", t)
		}
	}
}

// maxGather bounds the records one gather merges: the engine's default
// MaxBatch, so a shard still drains a merged frame as one batch.
const maxGather = 256

// gather merges into first the update frames that have already arrived
// behind it, one merged frame per shard, and returns the frames to
// apply in order. A follower applies one frame at a time and every
// apply costs its shard a log sync and a snapshot publication (cheap
// per dirty node, but with a directory rebuild whatever the batch
// size), so a follower that has fallen behind pays them once per
// shard for its whole backlog instead of once per primary batch, and
// catches up the faster the further behind it is. Only updates merge:
// they touch nothing outside their shard, so applying one shard's run
// ahead of another shard's earlier frame changes no outcome, while
// joins, leaves and takes move the engine-wide forwarding table and
// stay where the stream put them — any such frame, a rotation, another
// message or a frame still in flight ends the gather.
func gather(pc *pconn, first recordsFrame) []recordsFrame {
	frames := []recordsFrame{first}
	if pc.r.Buffered() == 0 || !updatesOnly(first.Recs) {
		return frames
	}
	at := map[int]int{first.Shard: 0} // shard -> its frame in frames
	for n := len(first.Recs); n < maxGather; {
		f, size, ok := pc.peekUpdates()
		if !ok || f.Epoch != first.Epoch {
			break
		}
		if i, seen := at[f.Shard]; !seen {
			at[f.Shard] = len(frames)
			frames = append(frames, f)
		} else if g := &frames[i]; f.Seg == g.Seg && f.Pos == g.Pos+uint64(len(g.Recs)) {
			g.Recs = append(g.Recs, f.Recs...)
		} else {
			break // a rotation or a gap: applyRecords' business, in stream order
		}
		pc.r.Discard(size)
		n += len(f.Recs)
	}
	return frames
}

// applyRecords verifies frame continuity, mirrors rotations, and
// applies one record batch through the engine.
func (c *Client) applyRecords(eng *serve.Engine, epoch uint64, f recordsFrame) error {
	if f.Epoch != epoch {
		// The fencing belt: a deposed primary's frames never apply.
		return errResync{fmt.Errorf("record frame epoch %d on an epoch-%d stream", f.Epoch, epoch)}
	}
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
	if err := eng.ReplApply(f.Shard, f.Epoch, f.Recs); err != nil {
		return errResync{err}
	}
	c.pos[f.Shard] = serve.ReplPos{Seg: f.Seg, Pos: f.Pos + uint64(len(f.Recs))}
	return nil
}
