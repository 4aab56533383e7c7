// Package repl replicates a serving engine's op-log to streaming
// followers — read replicas that can be promoted when the primary
// dies.
//
// Topology and roles:
//
//	writers ──► primary (serve.Engine, DataDir) ──► op-log
//	                │  one wire listener: queries, writes, and the
//	                │  per-shard record stream to subscribers
//	                ▼
//	readers ──► follower (serve.Engine, Follower) ──► mirrored DataDir
//
// Replication is a stream on the wire protocol (internal/serve/wire),
// served on the primary's one port. A follower subscribes with its
// epoch and log positions (wire.OpReplSubscribe); the primary then
// pushes every logged record batch, every checkpoint image (in
// chunks, at its exact rotation boundary) and a periodic heartbeat,
// each a CRC-checked wire frame. The follower applies records through
// the engine's own batch path (the same machinery crash recovery
// uses, join ids verified against the log) and rebuilds a
// byte-identical mirror of the primary's DataDir, so a follower
// crash/restart is just a warm restart plus a resumed stream from
// wherever its mirror ends.
//
// The subscription negotiates position: a follower whose mirror still
// matches the primary's current segments resumes mid-segment (the
// primary reads the already-durable gap from disk and splices it with
// the live feed); anything else — fresh follower, stale epoch,
// positions the primary has rotated away — bootstraps by checkpoint
// shipping and tails the log from the rotation point.
//
// Fail-over is explicit: Client.Promote (POST /promote over HTTP)
// drains the stream, seals epoch+1 durably, and opens the follower
// for writes. Every frame header carries the epoch, so a deposed
// primary is fenced wherever it reappears: a follower rejects its
// stale frames, and a primary that a newer-epoch follower subscribes
// to seals itself read-only through the wire protocol's write fence.
package repl

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/serve/wire"
)

// ServerConfig tunes the primary's replication server. Zero fields
// take the documented defaults.
type ServerConfig struct {
	// Heartbeat is the cadence of liveness/position frames to
	// followers (default 500ms). The follower treats several missed
	// heartbeats as a dead primary and reconnects.
	Heartbeat time.Duration
}

const (
	// sessionBuffer bounds each follower session's event queue; a
	// follower too slow to drain it is disconnected (it reconnects and
	// catches up from disk).
	sessionBuffer = 4096
	// writeTimeout bounds each write to a follower.
	writeTimeout = 10 * time.Second
	// keepOut is the most output buffer a session keeps between
	// writes: a checkpoint image's worth is dropped once sent.
	keepOut = 64 << 10
)

// Server streams a primary engine's op-log to follower sessions. It
// implements serve.ReplSink: the engine hands it every logged record
// batch and checkpoint, and the server fans them out to per-session
// bounded queues (the hub's single lock gives every session the same
// total order, preserving the take-before-join causality of
// cross-shard migrations). It implements wire.ReplSource too: serve
// it on a listener with Serve, or on an existing wire server with
// that server's SetReplSource.
type Server struct {
	e         *serve.Engine
	heartbeat time.Duration
	ws        *wire.Server // what Serve serves

	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup // one per session
}

// NewServer builds a replication server for a durable primary engine
// and attaches itself as the engine's replication sink.
func NewServer(e *serve.Engine, cfg ServerConfig) (*Server, error) {
	if e.Config().DataDir == "" {
		return nil, fmt.Errorf("repl: replication needs a durable engine (DataDir)")
	}
	s := &Server{
		e:         e,
		heartbeat: cfg.Heartbeat,
		sessions:  map[*session]struct{}{},
		stop:      make(chan struct{}),
	}
	if s.heartbeat <= 0 {
		s.heartbeat = 500 * time.Millisecond
	}
	s.ws = wire.NewServer(func() serve.Service { return e }, wire.ServerConfig{})
	s.ws.SetReplSource(s)
	e.SetReplSink(s)
	return s, nil
}

// Serve serves the whole wire protocol on ln until Close — queries
// and writes against the engine, and replication to the followers
// that subscribe. Blocking.
func (s *Server) Serve(ln net.Listener) error { return s.ws.Serve(ln) }

// Close detaches the sink, tears down every session, and closes the
// listeners Serve was given.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ss := range s.sessions {
		ss.kill()
	}
	s.mu.Unlock()
	s.e.SetReplSink(nil)
	close(s.stop)
	s.ws.Close()
	s.wg.Wait()
	return nil
}

// --- sink fan-out ------------------------------------------------------------

// event kinds in session queues.
const (
	evRecords byte = iota
	evCkpt
)

type event struct {
	kind      byte
	shard     int
	seg, pos  uint64
	epoch     uint64
	recs      []wal.Record
	seq       uint64
	firstSegs []uint64
	data      []byte
}

// ReplRecords implements serve.ReplSink (called from shard
// goroutines; must not block). recs aliases the shard's reusable
// buffer, so it is copied here — but only when a session exists to
// receive it: an idle primary with no followers pays nothing.
func (s *Server) ReplRecords(shard int, seg, pos, epoch uint64, recs []wal.Record) {
	s.mu.Lock()
	if len(s.sessions) > 0 {
		s.deliverLocked(event{
			kind: evRecords, shard: shard, seg: seg, pos: pos, epoch: epoch,
			recs: append([]wal.Record(nil), recs...),
		})
	}
	s.mu.Unlock()
}

// ReplCheckpoint implements serve.ReplSink (data is the engine's own
// freshly-read file image, never reused — no copy needed).
func (s *Server) ReplCheckpoint(seq, epoch uint64, firstSegs []uint64, data []byte) {
	s.mu.Lock()
	s.deliverLocked(event{kind: evCkpt, seq: seq, epoch: epoch, firstSegs: firstSegs, data: data})
	s.mu.Unlock()
}

func (s *Server) deliverLocked(ev event) {
	for ss := range s.sessions {
		select {
		case ss.ch <- ev:
		default:
			// The follower can't keep up; cut it loose — it
			// reconnects and resumes (or re-bootstraps) from disk.
			ss.kill()
		}
	}
}

// add registers a session, unless the server is closed.
func (s *Server) add(ss *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.sessions[ss] = struct{}{}
	s.wg.Add(1)
	s.e.ReplFollowerDelta(1)
	return true
}

func (s *Server) remove(ss *session) {
	s.mu.Lock()
	delete(s.sessions, ss)
	s.mu.Unlock()
	s.e.ReplFollowerDelta(-1)
	s.wg.Done()
}

// --- one follower session ----------------------------------------------------

type session struct {
	s    *Server
	ch   chan event
	dead chan struct{}
	once sync.Once
	// sync is, per shard, where a resuming follower's disk splice
	// ends: the log was synced there after the session registered, so
	// the queue holds everything past it. nil for a bootstrap.
	sync []serve.ReplPos
	// next is, per shard, the position the follower holds: every
	// outgoing frame is trimmed against it, which is what splices
	// the disk catch-up and the live feed without gaps or overlaps.
	next []serve.ReplPos

	c     net.Conn
	reqID uint32
	out   []byte // frames not yet written
}

func (ss *session) kill() { ss.once.Do(func() { close(ss.dead) }) }

// Subscribe implements wire.ReplSource: it refuses a subscription
// this engine cannot serve, registers the session, and decides
// between resume and bootstrap. The session registers before the
// positions are probed, so every batch logged from then on is in its
// queue and whatever the disk read misses is already buffered.
func (s *Server) Subscribe(epoch uint64, sub *wire.ReplSubscribe) (wire.ReplWelcome, func(net.Conn, uint32, []byte), error) {
	e := s.e
	cfg := e.Config()
	w := wire.ReplWelcome{Shards: e.Shards(), Seed: cfg.Seed, NodesPerShard: cfg.NodesPerShard, Dims: cfg.CMax.Dim()}
	switch e.Role() {
	case "follower":
		return w, nil, serve.ErrReadOnly
	case "fenced":
		return w, nil, serve.ErrFenced
	}
	if sub.Shards != e.Shards() || (len(sub.Pos) != 0 && len(sub.Pos) != sub.Shards) {
		return w, nil, fmt.Errorf("%w: repl: follower has %d shards and %d positions, primary %d shards",
			serve.ErrBadRequest, sub.Shards, len(sub.Pos), e.Shards())
	}
	ss := &session{s: s, ch: make(chan event, sessionBuffer), dead: make(chan struct{})}
	if !s.add(ss) {
		return w, nil, serve.ErrClosed
	}
	// Resume is possible only when the follower's mirror ends inside
	// every shard's CURRENT segment under the current epoch; closed
	// segments may have been compacted or pruned, so anything older
	// re-bootstraps (checkpoint shipping makes that cheap).
	w.Resume = len(sub.Pos) != 0 && epoch == e.Epoch()
	sync := make([]serve.ReplPos, e.Shards())
	for i := 0; w.Resume && i < len(sync); i++ {
		sp, err := e.ReplSyncPosition(i)
		if err != nil {
			s.remove(ss)
			return w, nil, err
		}
		sync[i] = sp
		w.Resume = sub.Pos[i].Seg == sp.Seg && sub.Pos[i].Pos <= sp.Pos
	}
	if w.Resume {
		ss.sync, ss.next = sync, append([]serve.ReplPos(nil), sub.Pos...)
	}
	return w, ss.run, nil
}

// run streams to one subscribed follower, behind the welcome in out:
// the disk splice or the bootstrap image, then the live feed and
// heartbeats, until the follower goes away or falls too far behind,
// or the server closes.
func (ss *session) run(c net.Conn, reqID uint32, out []byte) {
	s, e := ss.s, ss.s.e
	defer s.remove(ss)
	ss.c, ss.reqID, ss.out = c, reqID, out
	if ss.sync != nil {
		// Splice the durable gap from disk: everything between the
		// follower's position and the sync point is flushed and
		// readable; everything after the sync point is in the queue.
		// If the segment was rotated AND compacted between the sync
		// and this read, its record ordinals no longer match the
		// live sequence — the compacted flag in the header (the
		// rewrite is atomic, so we see one version or the other)
		// aborts the splice and the follower subscribes again.
		for i, sp := range ss.sync {
			from, to := ss.next[i].Pos, sp.Pos
			if from >= to {
				continue
			}
			meta, recs, _, _, err := wal.ReadSegmentInfo(e.ReplLogPath(i, sp.Seg))
			if err != nil || meta.Compacted || uint64(len(recs)) < to {
				return
			}
			ss.out = wire.AppendReplRecords(ss.out, reqID, e.Epoch(), &wire.ReplRecords{
				Shard: i, Seg: sp.Seg, Pos: from, Recs: recs[from:to],
			})
			ss.next[i] = sp
		}
		if ss.flush() != nil {
			return
		}
	} else if !ss.bootstrap() {
		return
	}

	// Watchdog: the follower sends nothing after its subscribe, so any
	// read completion means EOF or error — the signal to tear down.
	go func() {
		io.Copy(io.Discard, c)
		ss.kill()
	}()

	hb := time.NewTicker(s.heartbeat)
	defer hb.Stop()
	for {
		select {
		case ev := <-ss.ch:
			if ss.sendQueued(ev) != nil {
				return
			}
		case <-hb.C:
			ss.out = wire.AppendReplHeartbeat(ss.out, reqID, e.Epoch(), &wire.ReplHeartbeat{
				Sent: time.Now().UnixNano(), Pos: e.ReplPositions(),
			})
			if ss.flush() != nil {
				return
			}
		case <-ss.dead:
			return
		case <-s.stop:
			return
		}
	}
}

// bootstrap sends the welcome, then forces a checkpoint: its image
// lands in this session's queue in order behind every record frame of
// the segments it covers — exactly the boundary the follower needs.
// Records arriving before it are held back and re-filtered once the
// boundary is known.
func (ss *session) bootstrap() bool {
	if ss.flush() != nil {
		return false
	}
	ck, err := ss.s.e.Checkpoint()
	if err != nil {
		return false
	}
	var held []event
	for {
		select {
		case ev := <-ss.ch:
			switch {
			case ev.kind == evCkpt && ev.seq >= ck.Seq:
				if ss.sendCkpt(ev) != nil {
					return false
				}
				for _, ev := range held {
					if ss.queue(ev) != nil {
						return false
					}
				}
				return ss.flush() == nil
			case ev.kind == evRecords:
				held = append(held, ev)
			}
		case <-ss.dead:
			return false
		case <-ss.s.stop:
			return false
		}
	}
}

// sendQueued writes ev and every event already queued behind it, up
// to half of keepOut bytes of frames, in one write: a follower that
// fell behind while the session was blocked on its socket catches up
// in a few writes, not one per logged batch. Frames keep stream order.
// A round ends once it holds keepOut/2 bytes, so the frame that crosses
// that mark (one logged batch) leaves the buffer within keepOut and
// flush keeps it for the next round; only a checkpoint image or a
// resume's disk catch-up outgrows it. A checkpoint ends the round: its
// image goes out with what precedes it, and the oversized buffer is
// dropped.
func (ss *session) sendQueued(ev event) error {
	for {
		if ev.kind == evCkpt {
			return ss.sendCkpt(ev)
		}
		if err := ss.queue(ev); err != nil {
			return err
		}
		if len(ss.out) >= keepOut/2 {
			return ss.flush()
		}
		select {
		case ev = <-ss.ch:
		default:
			return ss.flush()
		}
	}
}

// queue appends one record event's frame, trimmed against what the
// follower already holds; a gap means the splice logic broke and the
// session dies (the follower subscribes again from its durable
// position).
func (ss *session) queue(ev event) error {
	cur := ss.next[ev.shard]
	if ev.seg < cur.Seg {
		return nil // superseded by a shipped checkpoint's rotation
	}
	if ev.seg > cur.Seg {
		if ev.pos != 0 {
			return fmt.Errorf("repl: shard %d jumped to segment %d at pos %d", ev.shard, ev.seg, ev.pos)
		}
		cur = serve.ReplPos{Seg: ev.seg}
	}
	end := ev.pos + uint64(len(ev.recs))
	if end <= cur.Pos {
		return nil // already sent (disk splice overlap)
	}
	if ev.pos > cur.Pos {
		return fmt.Errorf("repl: shard %d gap: have %d, frame starts at %d", ev.shard, cur.Pos, ev.pos)
	}
	ss.out = wire.AppendReplRecords(ss.out, ss.reqID, ev.epoch, &wire.ReplRecords{
		Shard: ev.shard, Seg: ev.seg, Pos: cur.Pos, Recs: ev.recs[cur.Pos-ev.pos:],
	})
	ss.next[ev.shard] = serve.ReplPos{Seg: ev.seg, Pos: end}
	return nil
}

// sendCkpt ships a checkpoint image and advances the trim cursor to
// its rotation boundary.
func (ss *session) sendCkpt(ev event) error {
	ss.out = wire.AppendReplCheckpoint(ss.out, ss.reqID, ev.epoch, ev.seq, ev.data)
	if ss.next == nil {
		ss.next = make([]serve.ReplPos, len(ev.firstSegs))
	}
	for i, fs := range ev.firstSegs {
		if ss.next[i].Seg < fs {
			ss.next[i] = serve.ReplPos{Seg: fs}
		}
	}
	return ss.flush()
}

// flush writes every frame appended since the last write, if any.
func (ss *session) flush() error {
	if len(ss.out) == 0 {
		return nil
	}
	ss.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := ss.c.Write(ss.out)
	ss.out = ss.out[:0]
	if cap(ss.out) > keepOut {
		ss.out = nil
	}
	return err
}
