// Package capture records a serving engine's live operation stream
// into a replayable binary trace: every answered query (demand
// vector, query flags, arrival delta, response digest) interleaved
// with the engine's mutation stream (the same canonical wal records
// the op-log appends), in one total order. The recorder attaches to
// an engine through serve.SetCapture and never blocks the serving
// path: the capturing goroutine encodes each event into a bounded
// in-memory buffer a background writer flushes to the trace file,
// and a full buffer drops (and counts) instead of stalling a query.
//
// A trace file is a fixed header (the engine shape a replay must
// rebuild: shards, nodes per shard, seed, CMax) followed by
// CRC-framed events — the exact frame format wal segments use, so
// the torn-tail discipline is shared: a crash mid-write truncates
// the trace at the last whole event.
package capture

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
)

// EventKind types a trace event. On-disk values; do not renumber.
type EventKind uint8

const (
	// EvQuery is one answered query: its request shape and the digest
	// of the ranked candidates it returned.
	EvQuery EventKind = 1
	// EvMutation is one applied mutation, carried as the canonical
	// wal record its shard produced.
	EvMutation EventKind = 2
	// EvFault is a scripted fault a scenario injects at this point of
	// the stream (never emitted by live capture).
	EvFault EventKind = 3
)

// FaultKind enumerates scripted faults. On-disk values.
type FaultKind uint8

const (
	// FaultHaltShard halts shard Target permanently.
	FaultHaltShard FaultKind = 1
	// FaultKillMember kills federation member Target; replayed
	// against a single engine it halts shard Target as the
	// in-process stand-in.
	FaultKillMember FaultKind = 2
	// FaultPromote promotes the replay target (meaningful when it is
	// a follower; skipped otherwise).
	FaultPromote FaultKind = 3
	// FaultRebalance runs one explicit rebalance pass.
	FaultRebalance FaultKind = 4
)

// Event is one trace entry.
type Event struct {
	Kind EventKind
	// At is the event's offset from the trace start — the arrival
	// delta recorded pacing reproduces.
	At time.Duration

	// Query fields (EvQuery).
	Demand     []float64
	K          int
	Consistent bool
	NoCache    bool
	// Cached reports the response came from the query cache. It is
	// informational: a cached answer is the uncached one bit for bit,
	// so strict replay compares its digest like any other.
	Cached bool
	// Digest is the response digest (see Digest) captured live.
	Digest uint64
	// NCand is how many candidates the response carried.
	NCand int

	// Mutation fields (EvMutation).
	Shard int
	Rec   wal.Record

	// Fault fields (EvFault).
	Fault  FaultKind
	Target int
}

// Header is the engine shape stamped into a trace so replay can
// rebuild an identically parameterized fresh engine.
type Header struct {
	Shards        int
	NodesPerShard int
	Seed          uint64
	CMax          []float64
}

const (
	traceMagic   = "PIDTRC01"
	traceVersion = 1
)

// query event flag bits (on-disk). qfScopeOne rides on every
// consistent event: one without it asked for the retired scatter over
// every shard and does not decode.
const (
	qfConsistent = 1 << 0
	qfScopeOne   = 1 << 1
	qfNoCache    = 1 << 2
	qfCached     = 1 << 3
)

// Digest is the order-sensitive digest of a ranked candidate list:
// length, then each candidate's node id and the raw bits of its
// surplus, folded FNV-style one word at a time (whole-u64 rounds, not
// per byte — the digest runs on the serving path, inside the capture
// overhead budget). Two responses digest equal iff they carry the
// same candidates, in the same order, with bit-identical surpluses —
// the equivalence the referee (serve.Engine.Referee) holds every read
// path to, cached or not.
func Digest(cands []serve.Candidate) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(len(cands)))
	for i := range cands {
		mix(uint64(cands[i].Node))
		mix(math.Float64bits(cands[i].Surplus))
	}
	return h
}

func encodeHeader(h Header) []byte {
	buf := make([]byte, 0, 28+8*len(h.CMax))
	buf = append(buf, traceMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, traceVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.CMax)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Shards))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.NodesPerShard))
	buf = binary.LittleEndian.AppendUint64(buf, h.Seed)
	for _, v := range h.CMax {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func decodeHeader(data []byte) (Header, int, error) {
	if len(data) < 28 || string(data[:8]) != traceMagic {
		return Header{}, 0, fmt.Errorf("capture: not a trace file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(data[8:]); v != traceVersion {
		return Header{}, 0, fmt.Errorf("capture: trace version %d (want %d)", v, traceVersion)
	}
	dims := int(binary.LittleEndian.Uint16(data[10:]))
	h := Header{
		Shards:        int(binary.LittleEndian.Uint32(data[12:])),
		NodesPerShard: int(binary.LittleEndian.Uint32(data[16:])),
		Seed:          binary.LittleEndian.Uint64(data[20:]),
	}
	n := 28 + 8*dims
	if len(data) < n {
		return Header{}, 0, fmt.Errorf("capture: trace header truncated")
	}
	h.CMax = make([]float64, dims)
	for i := range h.CMax {
		h.CMax[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[28+8*i:]))
	}
	return h, n, nil
}

// appendEvent appends ev's frame payload to dst (rbuf scratches the
// inner wal-record encoding).
func appendEvent(dst []byte, ev *Event, rbuf *bytes.Buffer) ([]byte, error) {
	dst = append(dst, byte(ev.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(ev.At))
	switch ev.Kind {
	case EvQuery:
		var flags byte
		if ev.Consistent {
			flags |= qfConsistent | qfScopeOne
		}
		if ev.NoCache {
			flags |= qfNoCache
		}
		if ev.Cached {
			flags |= qfCached
		}
		dst = append(dst, flags)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(ev.K))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(ev.NCand))
		dst = binary.LittleEndian.AppendUint64(dst, ev.Digest)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ev.Demand)))
		for _, v := range ev.Demand {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	case EvMutation:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(ev.Shard))
		rbuf.Reset()
		if _, err := wal.EncodeRecords(rbuf, []wal.Record{ev.Rec}); err != nil {
			return dst, err
		}
		dst = append(dst, rbuf.Bytes()...)
	case EvFault:
		dst = append(dst, byte(ev.Fault))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(ev.Target))
	default:
		return dst, fmt.Errorf("capture: unknown event kind %d", ev.Kind)
	}
	return dst, nil
}

// decodeEvent parses one event from a verified frame payload.
func decodeEvent(p []byte) (Event, error) {
	if len(p) < 9 {
		return Event{}, fmt.Errorf("capture: event payload too short (%d bytes)", len(p))
	}
	ev := Event{
		Kind: EventKind(p[0]),
		At:   time.Duration(binary.LittleEndian.Uint64(p[1:])),
	}
	p = p[9:]
	switch ev.Kind {
	case EvQuery:
		if len(p) < 15 {
			return Event{}, fmt.Errorf("capture: query event truncated")
		}
		flags := p[0]
		if flags&(qfConsistent|qfScopeOne) == qfConsistent {
			return Event{}, fmt.Errorf("capture: consistent query event without the one-shard flag")
		}
		ev.Consistent = flags&qfConsistent != 0
		ev.NoCache = flags&qfNoCache != 0
		ev.Cached = flags&qfCached != 0
		ev.K = int(binary.LittleEndian.Uint16(p[1:]))
		ev.NCand = int(binary.LittleEndian.Uint16(p[3:]))
		ev.Digest = binary.LittleEndian.Uint64(p[5:])
		dims := int(binary.LittleEndian.Uint16(p[13:]))
		if len(p) < 15+8*dims {
			return Event{}, fmt.Errorf("capture: query demand truncated")
		}
		ev.Demand = make([]float64, dims)
		for i := range ev.Demand {
			ev.Demand[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[15+8*i:]))
		}
	case EvMutation:
		if len(p) < 2 {
			return Event{}, fmt.Errorf("capture: mutation event truncated")
		}
		ev.Shard = int(binary.LittleEndian.Uint16(p[0:]))
		recs, err := wal.DecodeRecords(p[2:])
		if err != nil || len(recs) != 1 {
			return Event{}, fmt.Errorf("capture: mutation event record: %v (%d records)", err, len(recs))
		}
		ev.Rec = recs[0]
	case EvFault:
		if len(p) < 5 {
			return Event{}, fmt.Errorf("capture: fault event truncated")
		}
		ev.Fault = FaultKind(p[0])
		ev.Target = int(binary.LittleEndian.Uint32(p[1:]))
	default:
		return Event{}, fmt.Errorf("capture: unknown event kind %d", ev.Kind)
	}
	return ev, nil
}

// Writer streams a trace: header first, then one CRC frame per
// event. Not safe for concurrent use; the Recorder serializes writes
// through its background goroutine.
type Writer struct {
	w     io.Writer
	buf   []byte // event payload scratch
	frame []byte // framed-event scratch
	rbuf  bytes.Buffer
	wrote int64
}

// NewWriter writes the trace header for shape h and returns the
// writer.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	hdr := encodeHeader(h)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &Writer{w: w, wrote: int64(len(hdr))}, nil
}

// WriteEvent frames and writes one event.
func (w *Writer) WriteEvent(ev *Event) error {
	payload, err := appendEvent(w.buf[:0], ev, &w.rbuf)
	w.buf = payload
	if err != nil {
		return err
	}
	w.frame = wal.AppendFrame(w.frame[:0], payload)
	if _, err := w.w.Write(w.frame); err != nil {
		return err
	}
	w.wrote += int64(len(w.frame))
	return nil
}

// Bytes is the trace bytes written so far (header included).
func (w *Writer) Bytes() int64 { return w.wrote }

// DecodeTrace parses a trace image: header, every whole event, and
// how many torn trailing bytes were dropped (a crash mid-write ends
// a trace the same way it ends a wal segment). An event frame that
// verifies its CRC but fails event decoding is corruption, not a
// torn tail, and errors out.
func DecodeTrace(data []byte) (Header, []Event, int64, error) {
	h, off, err := decodeHeader(data)
	if err != nil {
		return Header{}, nil, 0, err
	}
	var events []Event
	for {
		p, n, ok := wal.NextFrame(data[off:])
		if !ok {
			break
		}
		ev, err := decodeEvent(p)
		if err != nil {
			return Header{}, nil, 0, fmt.Errorf("capture: event %d: %w", len(events), err)
		}
		events = append(events, ev)
		off += n
	}
	return h, events, int64(len(data) - off), nil
}

// ReadTraceFile reads and decodes a trace file.
func ReadTraceFile(path string) (Header, []Event, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, 0, err
	}
	return DecodeTrace(data)
}
