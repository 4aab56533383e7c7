package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/vector"
)

// ServerConfig has no fields left. The type stays only because the
// benchmark module (bench/) and pidcan.WireServerConfig still name
// it; it goes when the benchmark stops naming it.
type ServerConfig struct{}

const (
	// readBuffer sizes each connection's read buffer; deep pipelines
	// drain whole request bursts from it per syscall.
	readBuffer = 64 << 10
	// idleTimeout closes a connection with no complete request for
	// this long.
	idleTimeout = 5 * time.Minute
)

// Server serves the wire protocol over persistent TCP connections
// (Serve). The service — an *serve.Engine or a federation router — is
// resolved through a getter on every request so a follower
// re-bootstrap can swap engines under a live listener (nil = not
// ready, requests fail with serve.ErrNotReady).
type Server struct {
	engine func() serve.Service
	repl   ReplSource

	conns    atomic.Int64
	requests atomic.Uint64
	rejected atomic.Uint64

	closed atomic.Bool
	mu     sync.Mutex
	lns    []net.Listener
	live   map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer builds a wire server over the service getter. Attach it
// to an engine's Stats with serve.Engine.SetWireStats(s.Stats).
func NewServer(engine func() serve.Service, _ ServerConfig) *Server {
	return &Server{
		engine: engine,
		live:   map[net.Conn]struct{}{},
	}
}

// SetReplSource attaches the replication server that OpReplSubscribe
// connections are handed to (nil detaches it; subscribes are then
// refused).
func (s *Server) SetReplSource(src ReplSource) {
	s.mu.Lock()
	s.repl = src
	s.mu.Unlock()
}

// Stats returns the server's gauge set (the feed behind the
// engine's wire_* stats fields).
func (s *Server) Stats() serve.WireStats {
	return serve.WireStats{
		Conns:    int(s.conns.Load()),
		Requests: s.requests.Load(),
		Rejected: s.rejected.Load(),
	}
}

// Serve accepts connections on ln until Close; each accepted
// connection is owned by one handler goroutine. It blocks; run it on
// its own goroutine next to the HTTP listener.
func (s *Server) Serve(ln net.Listener) error {
	if s.closed.Load() {
		return errServerClosed
	}
	s.mu.Lock()
	s.lns = append(s.lns, ln)
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Add under mu, never once closed is set: Close sets it before
		// taking mu and waits after, so no Add can race its Wait.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

var errServerClosed = errors.New("wire: server closed")

// Close stops the listeners and closes every live connection.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return errServerClosed
	}
	s.mu.Lock()
	for _, ln := range s.lns {
		ln.Close()
	}
	for c := range s.live {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// track registers a live connection for Close teardown; the returned
// func unregisters it.
func (s *Server) track(c net.Conn) (ok bool, untrack func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false, nil
	}
	s.live[c] = struct{}{}
	return true, func() {
		s.mu.Lock()
		delete(s.live, c)
		s.mu.Unlock()
	}
}

// connState is the per-connection scratch every request reuses: the
// hot path decodes into and encodes out of these buffers without
// allocating.
type connState struct {
	payload []byte
	out     []byte
	q       Query
	u       Update
	j       Join
	demand  vector.Vec // aliases q.Demand/u.Avail per request
	// cands is the candidates' buffer every OpQuery answers into, grown
	// by the first query that needs it, never by the connection's set-up.
	cands []serve.Candidate
	// stream, once set, owns the connection: an accepted subscribe.
	stream func(net.Conn, uint32, []byte)
}

// flushThreshold caps how much response data buffers before an
// early write, bounding memory under pathological pipelines.
const flushThreshold = 1 << 20

// handleConn owns one connection: it reads frames, serves them in
// order, and appends responses to an output buffer written in one
// syscall whenever the read side has no buffered request left — so a
// pipelined burst costs one read and one write syscall, not one per
// request.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	ok, untrack := s.track(c)
	if !ok {
		c.Close()
		return
	}
	defer untrack()
	defer c.Close()
	s.conns.Add(1)
	defer s.conns.Add(-1)

	br := newReader(c, readBuffer)
	st := &connState{
		payload: make([]byte, 0, 4096),
		out:     make([]byte, 0, 64<<10),
	}
	var hdr [HeaderSize]byte
	for {
		// Flush pending responses before blocking on the next read:
		// the client is owed everything we have finished.
		if br.buffered() == 0 && len(st.out) > 0 {
			if _, err := c.Write(st.out); err != nil {
				return
			}
			st.out = st.out[:0]
		}
		if br.buffered() == 0 {
			c.SetReadDeadline(time.Now().Add(idleTimeout))
		}
		if _, err := br.readFull(hdr[:]); err != nil {
			return // EOF, timeout or peer reset: the connection is done
		}
		// Stateless filter first: garbage is rejected before any
		// payload byte is read or allocated, and the connection is
		// closed — after unframed junk the stream cannot be trusted.
		h, err := ParseHeader(hdr[:])
		if err != nil || h.Flags != 0 {
			s.rejected.Add(1)
			return
		}
		if cap(st.payload) < int(h.PLen) {
			st.payload = make([]byte, h.PLen)
		}
		st.payload = st.payload[:h.PLen]
		if _, err := br.readFull(st.payload); err != nil {
			return
		}
		if !VerifyFrame(hdr[:], st.payload) {
			s.rejected.Add(1)
			return
		}
		s.requests.Add(1)
		st.out = s.handle(st.out, h, st.payload, st)
		if st.stream != nil {
			// The hand-over of an accepted subscribe: the replication
			// server owns the connection, and writes the welcome, until
			// it closes.
			c.SetReadDeadline(time.Time{})
			st.stream(c, h.ReqID, st.out)
			return
		}
		if len(st.out) >= flushThreshold {
			if _, err := c.Write(st.out); err != nil {
				return
			}
			st.out = st.out[:0]
		}
	}
}

// handle serves one verified request frame, appending the response
// to out.
func (s *Server) handle(out []byte, h Header, payload []byte, st *connState) []byte {
	eng := s.engine()
	var epoch uint64
	if eng != nil {
		epoch = eng.Epoch()
	}
	if h.Op == OpFedSummary {
		// Answered with or without an engine: a follower still
		// bootstrapping its mirror, like a service that holds no
		// population, has no summary, and a router that gets none
		// simply does not prune this member's legs.
		if len(payload) != 0 {
			return s.appendErr(out, h, epoch, eng, malformed(errTruncated))
		}
		var sum *Summary
		if az, ok := eng.(serve.AvailSummarizer); ok {
			if max, pop, seq, sok := az.AvailSummary(); sok {
				sum = &Summary{Seq: seq, Pop: uint32(pop), Max: max}
			}
		}
		return AppendFedSummaryResponse(out, h.ReqID, epoch, sum)
	}
	if eng == nil {
		return s.appendErr(out, h, 0, nil, serve.ErrNotReady)
	}
	switch h.Op {
	case OpQuery:
		if err := DecodeQuery(payload, &st.q); err != nil {
			return s.appendErr(out, h, epoch, eng, malformed(err))
		}
		resp, err := eng.QueryAppend(st.cands[:0], serve.QueryRequest{
			Demand:     vector.Vec(st.q.Demand),
			K:          st.q.K,
			Consistent: st.q.Consistent,
			NoCache:    st.q.NoCache,
		})
		if err != nil {
			return s.appendErr(out, h, epoch, eng, err)
		}
		out = AppendQueryResponse(out, h.ReqID, epoch, &resp)
		// Keep the buffer, not the rows it points into: a candidate's
		// Avail views an index block, which must not stay live for it.
		clear(resp.Candidates)
		st.cands = resp.Candidates[:0]
		return out

	case OpUpdate:
		if err := DecodeUpdate(payload, &st.u); err != nil {
			return s.appendErr(out, h, epoch, eng, malformed(err))
		}
		if out, ok := s.fence(out, h, eng, epoch); !ok {
			return out
		}
		if err := eng.Update(serve.GlobalID(st.u.Node), vector.Vec(st.u.Avail), st.u.Announce); err != nil {
			return s.appendErr(out, h, epoch, eng, err)
		}
		return AppendAck(out, OpUpdate, h.ReqID, epoch)

	case OpJoin:
		if err := DecodeJoin(payload, &st.j); err != nil {
			return s.appendErr(out, h, epoch, eng, malformed(err))
		}
		if out, ok := s.fence(out, h, eng, epoch); !ok {
			return out
		}
		var id serve.GlobalID
		var err error
		if st.j.Shard >= 0 {
			id, err = eng.JoinOn(st.j.Shard, vector.Vec(st.j.Avail))
		} else {
			id, err = eng.Join(vector.Vec(st.j.Avail))
		}
		if err != nil {
			return s.appendErr(out, h, epoch, eng, err)
		}
		return AppendJoinResponse(out, h.ReqID, epoch, uint64(id))

	case OpLeave:
		node, err := DecodeLeave(payload)
		if err != nil {
			return s.appendErr(out, h, epoch, eng, malformed(err))
		}
		if out, ok := s.fence(out, h, eng, epoch); !ok {
			return out
		}
		if err := eng.Leave(serve.GlobalID(node)); err != nil {
			return s.appendErr(out, h, epoch, eng, err)
		}
		return AppendAck(out, OpLeave, h.ReqID, epoch)

	case OpStats:
		data, err := json.Marshal(eng.StatsPayload())
		if err != nil {
			return s.appendErr(out, h, epoch, eng, err)
		}
		return AppendStatsResponse(out, h.ReqID, epoch, data)

	case OpFedTake:
		node, err := DecodeFedTake(payload)
		if err != nil {
			return s.appendErr(out, h, epoch, eng, malformed(err))
		}
		if out, ok := s.fence(out, h, eng, epoch); !ok {
			return out
		}
		avail, err := eng.Take(serve.GlobalID(node))
		degraded := err != nil && errors.Is(err, serve.ErrWAL)
		if err != nil && !degraded {
			return s.appendErr(out, h, epoch, eng, err)
		}
		return AppendFedTakeResponse(out, h.ReqID, epoch, avail, degraded)

	case OpReplSubscribe:
		return s.subscribe(out, h, payload, eng, epoch, st)
	}
	// The filter bounds h.Op: what is left are the ops only a primary
	// pushes.
	return s.appendErr(out, h, epoch, eng, malformed(errors.New("not a request op")))
}

// subscribe answers an OpReplSubscribe request. Accepted, it appends
// the welcome and leaves in st the stream to hand the connection to;
// refused, it appends an error frame and the connection serves on.
func (s *Server) subscribe(out []byte, h Header, payload []byte, eng serve.Service, epoch uint64, st *connState) []byte {
	var sub ReplSubscribe
	if err := DecodeReplSubscribe(payload, &sub); err != nil {
		return s.appendErr(out, h, epoch, eng, malformed(err))
	}
	// A follower from a newer epoch seals a deposed primary as a write
	// frame does; an older one is no refusal: it bootstraps.
	if h.Epoch > epoch {
		out, _ = s.fence(out, h, eng, epoch)
		return out
	}
	s.mu.Lock()
	src := s.repl
	s.mu.Unlock()
	if src == nil {
		return s.appendErr(out, h, epoch, eng, malformed(errors.New("replication is not served on this listener")))
	}
	w, stream, err := src.Subscribe(h.Epoch, &sub)
	if err != nil {
		return s.appendErr(out, h, epoch, eng, err)
	}
	st.stream = stream
	return AppendReplWelcome(out, h.ReqID, epoch, &w)
}

// fence applies replication-epoch fencing to a write frame: a frame
// stamped with a NEWER epoch proves a promotion happened elsewhere
// and seals this deposed primary on contact; a frame stamped with an
// OLDER epoch is a stale client whose write must not apply to the
// new timeline. Epoch 0 opts out (the client does not care).
func (s *Server) fence(out []byte, h Header, eng serve.Service, epoch uint64) ([]byte, bool) {
	if h.Epoch == 0 || h.Epoch == epoch {
		return out, true
	}
	if h.Epoch > epoch {
		eng.Fence(h.Epoch)
	}
	return s.appendErr(out, h, epoch, eng,
		fmt.Errorf("%w: epoch mismatch: frame %d, engine %d", serve.ErrFenced, h.Epoch, epoch)), false
}

// appendErr answers err with an error frame from its row in serve's
// rejection table, the row the HTTP edge answers it from too. eng is
// asked for its primary only by a row that names it (never nil then).
func (s *Server) appendErr(out []byte, h Header, epoch uint64, eng serve.Service, err error) []byte {
	row := serve.RejectionOf(err)
	var retry time.Duration
	if row.Retry {
		retry = serve.RetryAfter
	}
	primary := ""
	if row.Primary {
		primary = eng.PrimaryAddr()
	}
	return AppendError(out, h.Op, h.ReqID, epoch, row.Code, retry, primary, err.Error())
}

// malformed wraps a request's decode error as the bad request it is.
func malformed(err error) error { return fmt.Errorf("%w: %v", serve.ErrBadRequest, err) }

// reader is a minimal buffered reader tuned for the frame loop:
// readFull + buffered is all the handler needs, and keeping it local
// avoids bufio's per-Read interface indirection on the hot path.
type reader struct {
	c   net.Conn
	buf []byte
	r   int // next unread byte
	w   int // end of valid data
}

func newReader(c net.Conn, size int) *reader {
	return &reader{c: c, buf: make([]byte, size)}
}

// buffered reports the bytes already read from the socket but not
// yet consumed — the handler's "will the next read block?" signal.
func (b *reader) buffered() int { return b.w - b.r }

// readFull fills p entirely from the buffer, refilling from the
// socket as needed.
func (b *reader) readFull(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if b.r == b.w {
			b.r, b.w = 0, 0
			m, err := b.c.Read(b.buf)
			if err != nil {
				return n, err
			}
			b.w = m
		}
		m := copy(p[n:], b.buf[b.r:b.w])
		b.r += m
		n += m
	}
	return n, nil
}
