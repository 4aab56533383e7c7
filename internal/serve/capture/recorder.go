package capture

import (
	"bytes"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
)

// RecorderConfig parameterizes a Recorder.
type RecorderConfig struct {
	// Ring bounds how many captured events may sit encoded in memory
	// waiting for the background writer (default 8192). A full buffer
	// drops the event and counts it; it never blocks serving.
	Ring int
}

// Recorder implements serve.CaptureSink: it turns the engine's live
// operation stream into a trace file. Attach with
// engine.SetCapture(rec); detach (SetCapture(nil)) before Close.
//
// The hot path is a single short mutex: the capturing goroutine
// encodes the event's CRC frame straight into a shared append buffer
// — no per-event allocation, no queue handoff, and the caller's
// demand/avail slices are read synchronously so nothing is copied
// twice. A background writer swaps the buffer out at a short
// interval and writes the pre-encoded blob to the trace file, so
// file I/O never happens under the lock or on the serving path.
type Recorder struct {
	path  string
	f     *os.File
	start time.Time
	max   int // Ring: max events buffered before drop

	mu       sync.Mutex
	buf      []byte // encoded frames pending write (starts with the header)
	spare    []byte // swap target, reused between flushes
	scratch  []byte // payload scratch, reused per event
	rbuf     bytes.Buffer
	buffered int  // events in buf
	stopped  bool // set by Close under mu: reject new events
	// Counter shadows bumped under mu on the hot path; the writer
	// mirrors them into the atomic gauges once per flush so capture
	// pays no per-event atomic RMWs.
	recorded uint64
	appended int64

	quit chan struct{}
	done chan struct{}

	records   atomic.Uint64
	dropped   atomic.Uint64
	bytes     atomic.Int64
	writeErrs atomic.Uint64
	lastErr   error // background writer only; read after <-done
	closed    atomic.Bool
}

// NewRecorder creates the trace file at path under shape h and
// starts the background writer. Event times count from this call.
func NewRecorder(path string, h Header, cfg RecorderConfig) (*Recorder, error) {
	if cfg.Ring <= 0 {
		cfg.Ring = 8192
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	r := &Recorder{
		path:  path,
		f:     f,
		start: time.Now(),
		max:   cfg.Ring,
		buf:   encodeHeader(h),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	r.appended = int64(len(r.buf))
	r.bytes.Store(r.appended)
	go r.run()
	return r, nil
}

// Path returns the trace file's path.
func (r *Recorder) Path() string { return r.path }

// CaptureQuery records one answered query (errored queries are not
// replayable and are skipped). Called on the serving goroutine.
func (r *Recorder) CaptureQuery(req serve.QueryRequest, resp *serve.QueryResponse, err error) {
	if err != nil || r.closed.Load() {
		return
	}
	ev := Event{
		Kind:       EvQuery,
		At:         time.Since(r.start),
		Demand:     req.Demand, // aliased: encoded under the lock, never retained
		K:          req.K,
		Consistent: req.Consistent,
		NoCache:    req.NoCache,
		Cached:     resp.Cached,
		Digest:     Digest(resp.Candidates),
		NCand:      len(resp.Candidates),
	}
	r.mu.Lock()
	r.append(&ev)
	r.mu.Unlock()
}

// CaptureMutations records a shard batch's applied mutations, one
// event per record, in application order. Called under the shard's
// combiner lock; recs aliases the shard's reusable buffer, which stays
// valid for the duration of the call — the events are encoded here,
// synchronously, so nothing is copied.
func (r *Recorder) CaptureMutations(shard int, recs []wal.Record) {
	if r.closed.Load() {
		return
	}
	at := time.Since(r.start)
	r.mu.Lock()
	for i := range recs {
		ev := Event{Kind: EvMutation, At: at, Shard: shard, Rec: recs[i]}
		r.append(&ev)
	}
	r.mu.Unlock()
}

// append encodes ev's frame into the pending buffer. Caller holds mu.
func (r *Recorder) append(ev *Event) {
	if r.stopped {
		return
	}
	if r.buffered >= r.max {
		r.dropped.Add(1)
		return
	}
	payload, err := appendEvent(r.scratch[:0], ev, &r.rbuf)
	r.scratch = payload
	if err != nil {
		r.writeErrs.Add(1)
		return
	}
	n := len(r.buf)
	r.buf = wal.AppendFrame(r.buf, payload)
	r.buffered++
	r.recorded++
	r.appended += int64(len(r.buf) - n)
}

// CaptureStats feeds the engine's capture_* gauges.
func (r *Recorder) CaptureStats() serve.CaptureStats {
	return serve.CaptureStats{
		Records: r.records.Load(),
		Dropped: r.dropped.Load(),
		Bytes:   uint64(r.bytes.Load()),
	}
}

// Stats returns the recorder's own view of the capture gauges.
func (r *Recorder) Stats() serve.CaptureStats { return r.CaptureStats() }

// run is the background writer: at a short interval it swaps the
// pending buffer for an empty one and writes the blob out, so the
// capture path only ever pays the in-memory append.
func (r *Recorder) run() {
	defer close(r.done)
	for {
		r.flushBuf()
		select {
		case <-r.quit:
			r.flushBuf()
			return
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// flushBuf swaps out the pending buffer, publishes the counter
// shadows, and writes the blob to the file.
func (r *Recorder) flushBuf() {
	r.mu.Lock()
	blob := r.buf
	r.buf = r.spare[:0]
	r.buffered = 0
	r.records.Store(r.recorded)
	r.bytes.Store(r.appended)
	r.mu.Unlock()
	if len(blob) > 0 {
		if _, err := r.f.Write(blob); err != nil {
			r.writeErrs.Add(1)
			r.lastErr = err
		}
	}
	r.spare = blob[:0]
}

// Close stops the writer, drains whatever was already accepted, and
// fsyncs the trace file. Detach the recorder from the engine
// (SetCapture(nil)) before closing: events offered after Close are
// silently ignored. Returns the first write error the background
// writer hit, if any.
func (r *Recorder) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		<-r.done
		return nil
	}
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	close(r.quit)
	<-r.done
	err := r.f.Sync()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = r.lastErr
	}
	return err
}
