package serve

import (
	"fmt"

	"pidcan/internal/serve/wal"
)

// CaptureStats is the gauge set an attached CaptureSink feeds into
// Stats: records accepted into the trace, records the bounded ring
// dropped instead of blocking the serving path, and trace bytes
// written.
type CaptureStats struct {
	Records uint64
	Dropped uint64
	Bytes   uint64
}

// CaptureSink receives the engine's operation stream for trace
// recording. It is implemented by internal/serve/capture; serve
// cannot import that package (capture imports serve), so the engine
// talks to an interface — the same inversion ReplSink uses.
//
// Both capture methods are called on serving goroutines and must not
// block: a sink under backpressure drops (and counts) rather than
// stalling queries or a shard's combiner.
type CaptureSink interface {
	// CaptureQuery is called on the querying caller's goroutine after
	// the response is computed, before it is returned. req.Demand and
	// resp.Candidates alias caller-owned memory: the sink copies what
	// it keeps.
	CaptureQuery(req QueryRequest, resp *QueryResponse, err error)
	// CaptureMutations is called under a shard's combiner lock
	// immediately after a batch is applied, in exact application order — the same
	// canonical records the op-log appends (so a trace's mutation
	// stream and the WAL agree). recs aliases a reusable buffer: the
	// sink copies what it keeps.
	CaptureMutations(shard int, recs []wal.Record)
	// CaptureStats feeds the capture_* gauges in Stats.
	CaptureStats() CaptureStats
}

// SetCapture attaches a trace recorder to the engine (nil detaches).
// While attached, every answered query and every applied mutation is
// offered to the sink; an unattached engine pays one atomic load per
// operation. Safe to call on a serving engine: detach before closing
// the recorder, and in-flight operations that already loaded the
// sink pointer may still deliver one final event each.
func (e *Engine) SetCapture(s CaptureSink) {
	if s == nil {
		e.capture.Store(nil)
		return
	}
	e.capture.Store(&s)
}

// HaltShard permanently stops shard i — its op-log closes and the idle
// tick skips it — the fault surface replay drills and scenario traces
// use to model a shard (or the member it stands in for) dying. Writes and consistent queries
// routed to the halted shard fail with ErrClosed; snapshot reads keep
// serving its last published snapshot.
// Idempotent; there is no resurrection short of restarting the
// engine.
func (e *Engine) HaltShard(i int) error {
	if i < 0 || i >= len(e.shards) {
		return fmt.Errorf("%w: shard %d", ErrNoShard, i)
	}
	e.shards[i].halt()
	return nil
}
