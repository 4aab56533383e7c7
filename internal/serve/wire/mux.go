package wire

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Mux is the concurrent pipelined client: one Client shared by any
// number of goroutines. Callers append their request frame under a
// short mutex; a flusher goroutine batches everything concurrent
// callers enqueued into one write syscall per round; and a single
// reader goroutine walks the strictly-ordered response stream,
// handing each response to its caller through a FIFO. It is the
// Client's one-enqueuer/one-reader split with the enqueuer serialized
// by a mutex.
//
// A transport error fails the whole connection: every in-flight and
// later call fails with that first error (responses on a desynced
// stream can no longer be trusted), and the owner replaces the Mux.
// Close fails it the same way, with ErrClosed. Server-side rejections
// are not transport errors: they complete their call normally and the
// connection keeps serving.
type Mux struct {
	c *Client

	// mu serializes the client's enqueue/flush half and keeps FIFO
	// order equal to frame order. The reader never takes it: a
	// submitter may block on a full FIFO while holding it, and only
	// the reader frees slots.
	mu        sync.Mutex
	unflushed int // requests enqueued since the last Flush

	// Failure is lock-free for the same reason: fail sets err, then
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

	inflight atomic.Int64 // started minus completed (depth gauge)

	closeOnce sync.Once
	loops     sync.WaitGroup // the flusher and the reader
}

// ErrClosed is the error every call on a closed Mux fails with.
var ErrClosed = errors.New("wire: client closed")

// A Call is one request on a Mux. Enqueue appends its frame to the
// client's send buffer and returns its request id; it runs inside
// Start. Done receives the call's outcome exactly once, on the Mux's
// reader goroutine: the response (which aliases the client's reused
// buffers: Done copies what it keeps) or the error that failed the
// connection. Done must neither block nor call Close. A caller that
// waits hands the outcome to a channel; a fire-and-forget caller
// records it in place.
type Call interface {
	Enqueue(c *Client) uint32
	Done(r *Response, err error)
}

// muxCall is one in-flight request.
type muxCall struct {
	reqID uint32
	call  Call
}

// muxPendingCap bounds the in-flight FIFO. A full FIFO does not drop
// or fail calls: the submitter flushes (so the reader can drain) and
// then blocks for a slot, still in order, until one frees or the
// connection fails. A closed-loop load generator keeps the FIFO full,
// and the server's throughput grows with the requests each of its
// reads finds queued: 4096 measured ≈ 1.2x the closed-loop wire
// throughput of 1024 on a 2-core box.
const muxPendingCap = 4096

// NewMux takes ownership of c and starts its flusher and reader.
func NewMux(c *Client) *Mux {
	m := &Mux{
		c:       c,
		dead:    make(chan struct{}),
		pending: make(chan muxCall, muxPendingCap),
		kick:    make(chan struct{}, 1),
	}
	m.loops.Add(2)
	go m.readLoop()
	go m.flushLoop()
	return m
}

// Failed reports whether the connection has failed or been closed.
func (m *Mux) Failed() bool {
	select {
	case <-m.dead:
		return true
	default:
		return false
	}
}

// Inflight returns the number of started calls not yet completed.
func (m *Mux) Inflight() int64 { return m.inflight.Load() }

// Start issues call without waiting for its response, its frame
// stamped with writeEpoch (see Client.WriteEpoch). If the connection
// has already failed, Start returns that error and call.Done never
// runs.
func (m *Mux) Start(writeEpoch uint64, call Call) error {
	m.mu.Lock()
	if m.Failed() {
		m.mu.Unlock()
		return m.err
	}
	m.c.WriteEpoch = writeEpoch
	mc := muxCall{reqID: call.Enqueue(m.c), call: call}
	m.unflushed++
	select {
	case m.pending <- mc:
	default:
		// FIFO full. Flush first — our frame included — so the reader
		// can drain responses and free a slot, then block for it. The
		// push stays under mu: FIFO order must keep matching frame
		// order on the wire. A server that stalls and then resets
		// never frees a slot; the failure wakes the wait instead.
		m.flushLocked()
		select {
		case m.pending <- mc:
		case <-m.dead:
			m.mu.Unlock()
			return m.err
		}
	}
	m.inflight.Add(1)
	m.mu.Unlock()
	select {
	case m.kick <- struct{}{}:
	default: // a wake-up is already pending; it covers this frame too
	}
	return nil
}

// flushLoop is the flusher: woken by the first enqueue of a train, it
// yields one scheduler round — letting every runnable submitter append
// its frame — then flushes the whole batch in one write syscall,
// repeating while more frames keep arriving. It exits once the
// connection has failed (Close and fail both kick it awake).
func (m *Mux) flushLoop() {
	defer m.loops.Done()
	for range m.kick {
		runtime.Gosched()
		m.mu.Lock()
		m.flushLocked()
		m.mu.Unlock()
		if m.Failed() {
			return
		}
	}
}

func (m *Mux) flushLocked() {
	if m.unflushed == 0 || m.Failed() {
		return
	}
	m.unflushed = 0
	if err := m.c.Flush(); err != nil {
		m.fail(err)
	}
}

// readLoop is the single reader: one FIFO entry, one ReadResponse,
// in lockstep. Once the connection has failed it keeps consuming the
// FIFO — failing calls without touching the socket — so submitters
// blocked on a full FIFO always make progress.
func (m *Mux) readLoop() {
	defer m.loops.Done()
	for mc := range m.pending {
		if !m.Failed() {
			r, err := m.c.ReadResponse()
			if err == nil && r.ReqID != mc.reqID {
				err = fmt.Errorf("wire: pipelined response id %d for request %d (stream desync)", r.ReqID, mc.reqID)
			}
			if err == nil {
				mc.call.Done(r, nil)
				m.inflight.Add(-1)
				continue
			}
			m.fail(err)
		}
		mc.call.Done(nil, m.err)
		m.inflight.Add(-1)
	}
}

// fail records the connection's first error. It takes no lock, so the
// reader can fail the connection while a submitter holds mu blocked on
// a full FIFO. Closing the client unblocks a reader mid-ReadResponse
// and a flusher mid-write; the kick lets an idle flusher observe the
// failure and exit.
func (m *Mux) fail(err error) {
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

// Close fails the connection with ErrClosed, closes the FIFO and
// returns once the flusher and the reader have exited, every call
// completed. Safe against concurrent Starts: the failure lands first
// and the FIFO closes under mu, so a submitter mid-push finishes (or
// wakes on the failure) before the close and none can push afterwards;
// the reader fails what remains before it exits.
func (m *Mux) Close() {
	m.closeOnce.Do(func() {
		m.fail(ErrClosed)
		m.mu.Lock()
		close(m.pending)
		m.mu.Unlock()
	})
	m.loops.Wait()
}
