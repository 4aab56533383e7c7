package fed

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/serve/wire"
)

// muxConn is one pipelined wire connection shared by every concurrent
// caller of a RemotePrimary. Callers append their request frame under
// a short mutex and park on a per-call channel; a dedicated flusher
// goroutine batches everything concurrent callers enqueued into one
// write syscall per round; and a single reader goroutine walks the
// strictly-ordered response stream, correlating each response back to
// its caller through a FIFO. This is exactly the wire.Client's one
// sanctioned concurrency split — one enqueuer (serialized by mu), one
// reader — so concurrent router scatter legs ride a shared connection
// instead of paying one synchronous RTT each.
//
// A transport error poisons the whole connection: the sticky error
// fails every in-flight and subsequent call fast (responses on a
// desynced stream can no longer be trusted), and the owning
// RemotePrimary replaces the conn on its next checkout. Server-side
// rejections are NOT transport errors — they complete their call
// normally and the connection keeps serving.
type muxConn struct {
	c    *wire.Client
	addr string

	// mu serializes the client's enqueue/flush half and keeps FIFO
	// order equal to frame order. The reader never takes it: a
	// submitter may block on a full FIFO while holding it, and only
	// the reader frees slots.
	mu        sync.Mutex
	unflushed int // requests enqueued since the last Flush

	// Poison is lock-free for the same reason: fail sets err, then
	// closes dead. err is read only after observing dead closed.
	failOnce sync.Once
	err      error
	dead     chan struct{}

	// kick wakes the flusher goroutine (cap 1: wake-ups coalesce).
	// The flusher yields one scheduler round before flushing, so on a
	// saturated machine every runnable submitter gets to append its
	// frame first and the whole train leaves in one write syscall —
	// the batching that makes pipelining pay on busy cores, where a
	// flush-on-enqueue strategy degenerates to one syscall per frame.
	kick chan struct{}

	// pending is the in-flight FIFO: entry order matches frame order
	// on the wire (both happen under mu), which is the whole
	// correlation scheme — the protocol answers strictly in request
	// order, and reqID equality is verified per response.
	pending chan muxCall

	inflight atomic.Int64 // submitted minus completed (depth gauge)

	closeOnce sync.Once
}

// muxCall is one in-flight request: the reader runs on against the
// decoded response (still aliasing reused client buffers — on must
// copy anything it keeps) and completes done.
type muxCall struct {
	reqID uint32
	on    func(*wire.Response) error
	done  chan error
}

// muxPendingCap bounds the in-flight FIFO. A full FIFO does not drop
// or fail calls: the submitter flushes (so the reader can drain) and
// then blocks for a slot, still in order, until one frees or the
// conn is poisoned.
const muxPendingCap = 1024

// donePool recycles the per-call completion channels: a call's
// channel is empty again after its receive, so it is safe to hand to
// the next call instead of allocating one per request.
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

func newMuxConn(c *wire.Client, addr string) *muxConn {
	// The mux accounts for its own in-flight calls; the client's
	// close-time drain only needs to cover a response mid-read.
	c.DrainTimeout = 10 * time.Millisecond
	m := &muxConn{
		c: c, addr: addr,
		dead:    make(chan struct{}),
		pending: make(chan muxCall, muxPendingCap),
		kick:    make(chan struct{}, 1),
	}
	go m.readLoop()
	go m.flushLoop()
	return m
}

// isDead reports whether the conn is poisoned.
func (m *muxConn) isDead() bool {
	select {
	case <-m.dead:
		return true
	default:
		return false
	}
}

// start issues one request over the shared connection without
// waiting for its response: enqueue the frame (stamped with
// writeEpoch) under mu, register the call in the FIFO, kick the
// flusher, and return the call's completion channel. The reader runs
// on against the response and sends the outcome exactly once: the
// transport error that poisoned the conn, or whatever on returned.
// Callers that receive from it must return the channel to donePool;
// callers that abandon the wait must NOT (the reader's late send
// still lands in the buffer).
func (m *muxConn) start(writeEpoch uint64, enq func(*wire.Client) uint32, on func(*wire.Response) error) (chan error, error) {
	done := donePool.Get().(chan error)
	m.mu.Lock()
	if m.isDead() {
		m.mu.Unlock()
		donePool.Put(done)
		return nil, m.err
	}
	m.c.WriteEpoch = writeEpoch
	id := enq(m.c)
	m.unflushed++
	call := muxCall{reqID: id, on: on, done: done}
	select {
	case m.pending <- call:
	default:
		// FIFO full. Flush first — our frame included — so the reader
		// can drain responses and free a slot, then block for it. The
		// push stays under mu: FIFO order must keep matching frame
		// order on the wire. A member that stalls and then resets
		// never frees a slot; poison wakes the wait instead.
		m.flushLocked()
		select {
		case m.pending <- call:
		case <-m.dead:
			m.mu.Unlock()
			donePool.Put(done)
			return nil, m.err
		}
	}
	m.inflight.Add(1)
	m.mu.Unlock()
	select {
	case m.kick <- struct{}{}:
	default: // a wake-up is already pending; it covers this frame too
	}
	return done, nil
}

// flushLoop is the dedicated flusher: woken by the first enqueue of a
// train, it yields one scheduler round — letting every runnable
// submitter append its frame — then flushes the whole batch in one
// write syscall, repeating while more frames keep arriving. Exits
// once the conn is poisoned (Close and fail both kick it awake).
func (m *muxConn) flushLoop() {
	for range m.kick {
		runtime.Gosched()
		m.mu.Lock()
		m.flushLocked()
		m.mu.Unlock()
		if m.isDead() {
			return
		}
	}
}

func (m *muxConn) flushLocked() {
	if m.unflushed == 0 || m.isDead() {
		return
	}
	m.unflushed = 0
	if err := m.c.Flush(); err != nil {
		m.fail(err)
	}
}

// readLoop is the single reader: one FIFO entry, one ReadResponse,
// in lockstep. Once the conn is poisoned it keeps consuming the FIFO
// — failing calls fast without touching the socket — so submitters
// blocked on a full FIFO always make progress.
func (m *muxConn) readLoop() {
	for call := range m.pending {
		var err error
		if m.isDead() {
			err = m.err
		} else {
			var r *wire.Response
			r, err = m.c.ReadResponse()
			if err != nil {
				m.fail(err)
			} else if r.ReqID != call.reqID {
				err = fmt.Errorf("wire: pipelined response id %d for request %d (stream desync)", r.ReqID, call.reqID)
				m.fail(err)
			} else {
				err = call.on(r)
			}
		}
		call.done <- err
		m.inflight.Add(-1)
	}
}

// fail poisons the conn with its first error. It takes no lock, so
// the reader can poison while a submitter holds mu blocked on a full
// FIFO. Closing the client unblocks a reader mid-ReadResponse and a
// flusher mid-write; the kick lets an idle-parked flusher observe
// the poison and exit.
func (m *muxConn) fail(err error) {
	m.failOnce.Do(func() {
		m.err = err
		close(m.dead)
		m.c.Close()
		select {
		case m.kick <- struct{}{}:
		default:
		}
	})
}

// Close poisons the conn and closes the FIFO. Safe against concurrent
// submits: the poison lands first and the FIFO closes under mu, so a
// submitter mid-push finishes (or wakes on the poison) before the
// close and none can push afterwards; the reader drains what remains
// (failing each call fast) before exiting.
func (m *muxConn) Close() {
	m.closeOnce.Do(func() {
		m.fail(wire.ErrClosed)
		m.mu.Lock()
		close(m.pending)
		m.mu.Unlock()
	})
}
