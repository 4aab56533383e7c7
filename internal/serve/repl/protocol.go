// Package repl replicates a serving engine's op-log to streaming
// followers — read replicas that can be promoted when the primary
// dies.
//
// Topology and roles:
//
//	writers ──► primary (serve.Engine, DataDir) ──► op-log
//	                │  repl.Server: per-shard record stream +
//	                │  checkpoint shipping over one TCP conn
//	                ▼
//	readers ──► follower (serve.Engine, Follower) ──► mirrored DataDir
//
// The primary streams every logged record batch, framed and
// CRC-checked, over a length-prefixed TCP protocol; checkpoints ship
// as verbatim file images at their exact rotation boundaries. The
// follower applies records through the engine's own batch path (the
// same machinery crash recovery uses, join ids verified against the
// log) and rebuilds a byte-identical mirror of the primary's
// DataDir, so a follower crash/restart is just a warm restart plus a
// resumed stream from wherever its mirror ends.
//
// The handshake negotiates shard shape and position: a follower
// whose mirror still matches the primary's current segments resumes
// mid-segment (the primary reads the already-durable gap from disk
// and splices it with the live feed); anything else — fresh
// follower, stale epoch, positions the primary has rotated away —
// bootstraps by checkpoint shipping and tails the log from the
// rotation point.
//
// Fail-over is explicit: Client.Promote (POST /promote over HTTP)
// drains the stream, seals epoch+1 durably, and opens the follower
// for writes. The epoch rides the handshake and every frame, so a
// deposed primary is fenced wherever it reappears: a follower
// rejects its stale frames, and a primary that hears a newer epoch
// in a handshake seals itself read-only.
package repl

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
)

// Protocol magic + version, first frame on the wire in each
// direction (inside hello/welcome).
const protoMagic = "PIDREPL1"

// Message types.
const (
	msgHello      byte = 1 // follower -> primary: epoch + positions
	msgWelcome    byte = 2 // primary -> follower: verdict + shape
	msgRecords    byte = 3 // primary -> follower: one record batch
	msgCheckpoint byte = 4 // primary -> follower: checkpoint image
	msgHeartbeat  byte = 5 // primary -> follower: liveness + positions
)

// Welcome statuses.
const (
	// StResume: the follower's positions are live; the stream starts
	// where its mirror ends.
	StResume byte = 1
	// StBootstrap: full state transfer — a checkpoint image frame
	// follows, then the stream tails from its rotation point.
	StBootstrap byte = 2
	// StFenced: the follower presented a NEWER epoch; this primary
	// is deposed and has sealed itself.
	StFenced byte = 3
	// StNotPrimary: the target is itself a follower or fenced.
	StNotPrimary byte = 4
	// StIncompatible: shard shape mismatch; replication refused.
	StIncompatible byte = 5
)

// hello is the follower's opening frame.
type hello struct {
	Epoch     uint64
	Shards    int
	Bootstrap bool
	Pos       []serve.ReplPos // per shard; ignored when Bootstrap
}

// welcome is the primary's handshake verdict.
type welcome struct {
	Status        byte
	Epoch         uint64
	Shards        int
	CkptSeq       uint64
	Seed          uint64
	NodesPerShard int
	Dims          int
}

// recordsFrame is one replicated record batch: shard's segment seg,
// first record ordinal pos.
type recordsFrame struct {
	Shard int
	Seg   uint64
	Pos   uint64
	Epoch uint64
	Recs  []wal.Record
}

// ckptFrame ships one checkpoint: the verbatim file image plus the
// per-shard post-rotation segments (redundant with the image, but
// the follower rotates before decoding).
type ckptFrame struct {
	Seq       uint64
	Epoch     uint64
	FirstSegs []uint64
	Data      []byte
}

// heartbeat carries the primary's live positions for lag reporting.
type heartbeat struct {
	Epoch uint64
	Pos   []serve.ReplPos
}

// Frame caps. The handshake reads with the control cap; mid-stream
// the follower cannot know a frame's type before reading it, so
// every stream read allows up to the checkpoint-image cap (the
// largest legitimate frame, scaling with the population).
const (
	maxCtrlFrame = 1 << 20   // hello/welcome
	maxCkptFrame = 256 << 20 // any stream frame (records/checkpoint/heartbeat)
)

// pconn is one framed protocol connection, framed exactly as the
// op-log is (wal.PutFrameHeader / wal.ParseFrame) under its own size
// caps.
type pconn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func newPconn(c net.Conn) *pconn {
	return &pconn{c: c, r: bufio.NewReaderSize(c, 1<<16), w: bufio.NewWriterSize(c, 1<<16)}
}

func (p *pconn) writeFrame(payload []byte) error {
	var hdr [wal.FrameHeader]byte
	wal.PutFrameHeader(hdr[:], payload)
	if _, err := p.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := p.w.Write(payload)
	return err
}

func (p *pconn) flush() error { return p.w.Flush() }

func (p *pconn) readFrame(max int) ([]byte, error) {
	var hdr [wal.FrameHeader]byte
	if _, err := io.ReadFull(p.r, hdr[:]); err != nil {
		return nil, err
	}
	n, ok := wal.FrameLen(hdr[:], max)
	if !ok {
		return nil, fmt.Errorf("repl: frame of %d bytes exceeds cap %d", n, max)
	}
	frame := make([]byte, wal.FrameHeader+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(p.r, frame[wal.FrameHeader:]); err != nil {
		return nil, err
	}
	payload, _, ok := wal.ParseFrame(frame, max)
	if !ok {
		return nil, fmt.Errorf("repl: frame checksum mismatch")
	}
	return payload, nil
}

// peekUpdates decodes the next frame without consuming it, provided it
// has arrived in full and is a records frame carrying updates only; size
// is what Discard must skip to consume it. Anything else — a partial
// frame, another message, a damaged one — is left for readFrame.
func (p *pconn) peekUpdates() (f recordsFrame, size int, ok bool) {
	raw, _ := p.r.Peek(p.r.Buffered())
	// Decoded records hold copies, never the buffer.
	payload, size, ok := wal.ParseFrame(raw, maxCkptFrame)
	if !ok || len(payload) == 0 || payload[0] != msgRecords {
		return f, 0, false
	}
	f, err := decodeRecordsFrame(&r{buf: payload[1:]})
	return f, size, err == nil && updatesOnly(f.Recs)
}

func updatesOnly(recs []wal.Record) bool {
	for i := range recs {
		if recs[i].Kind != wal.KindUpdate {
			return false
		}
	}
	return true
}

func (p *pconn) setReadDeadline(d time.Duration) {
	if d <= 0 {
		p.c.SetReadDeadline(time.Time{})
		return
	}
	p.c.SetReadDeadline(time.Now().Add(d))
}

func (p *pconn) setWriteDeadline(d time.Duration) {
	if d <= 0 {
		p.c.SetWriteDeadline(time.Time{})
		return
	}
	p.c.SetWriteDeadline(time.Now().Add(d))
}

// --- payload codecs ----------------------------------------------------------

// b is a little-endian append-style writer.
type b struct{ buf []byte }

func (x *b) u8(v byte)    { x.buf = append(x.buf, v) }
func (x *b) u32(v uint32) { x.buf = binary.LittleEndian.AppendUint32(x.buf, v) }
func (x *b) u64(v uint64) { x.buf = binary.LittleEndian.AppendUint64(x.buf, v) }
func (x *b) bytes(v []byte) {
	x.u32(uint32(len(v)))
	x.buf = append(x.buf, v...)
}

// r is the matching reader; failed reads poison it.
type r struct {
	buf []byte
	err error
}

func (x *r) u8() byte {
	if x.err != nil || len(x.buf) < 1 {
		x.err = errShort
		return 0
	}
	v := x.buf[0]
	x.buf = x.buf[1:]
	return v
}

func (x *r) u32() uint32 {
	if x.err != nil || len(x.buf) < 4 {
		x.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint32(x.buf)
	x.buf = x.buf[4:]
	return v
}

func (x *r) u64() uint64 {
	if x.err != nil || len(x.buf) < 8 {
		x.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint64(x.buf)
	x.buf = x.buf[8:]
	return v
}

func (x *r) bytes() []byte {
	n := int(x.u32())
	if x.err != nil || len(x.buf) < n {
		x.err = errShort
		return nil
	}
	v := x.buf[:n]
	x.buf = x.buf[n:]
	return v
}

var errShort = fmt.Errorf("repl: truncated payload")

func encodeHello(h hello) []byte {
	x := &b{}
	x.buf = append(x.buf, protoMagic...)
	x.u8(msgHello)
	x.u64(h.Epoch)
	x.u32(uint32(h.Shards))
	if h.Bootstrap {
		x.u8(1)
	} else {
		x.u8(0)
	}
	for _, p := range h.Pos {
		x.u64(p.Seg)
		x.u64(p.Pos)
	}
	return x.buf
}

func decodeHello(data []byte) (hello, error) {
	if len(data) < len(protoMagic) || string(data[:len(protoMagic)]) != protoMagic {
		return hello{}, fmt.Errorf("repl: not a replication handshake")
	}
	x := &r{buf: data[len(protoMagic):]}
	if t := x.u8(); t != msgHello {
		return hello{}, fmt.Errorf("repl: expected hello, got message %d", t)
	}
	h := hello{Epoch: x.u64(), Shards: int(x.u32()), Bootstrap: x.u8() == 1}
	// The count is untrusted wire input: bound it before allocating
	// (the frame cap bounds the payload, not the claimed count).
	if h.Shards < 0 || h.Shards > 1<<16 {
		return hello{}, fmt.Errorf("repl: hello claims %d shards", h.Shards)
	}
	if !h.Bootstrap {
		h.Pos = make([]serve.ReplPos, h.Shards)
		for i := range h.Pos {
			h.Pos[i] = serve.ReplPos{Seg: x.u64(), Pos: x.u64()}
		}
	}
	return h, x.err
}

func encodeWelcome(w welcome) []byte {
	x := &b{}
	x.buf = append(x.buf, protoMagic...)
	x.u8(msgWelcome)
	x.u8(w.Status)
	x.u64(w.Epoch)
	x.u32(uint32(w.Shards))
	x.u64(w.CkptSeq)
	x.u64(w.Seed)
	x.u32(uint32(w.NodesPerShard))
	x.u32(uint32(w.Dims))
	return x.buf
}

func decodeWelcome(data []byte) (welcome, error) {
	if len(data) < len(protoMagic) || string(data[:len(protoMagic)]) != protoMagic {
		return welcome{}, fmt.Errorf("repl: not a replication handshake")
	}
	x := &r{buf: data[len(protoMagic):]}
	if t := x.u8(); t != msgWelcome {
		return welcome{}, fmt.Errorf("repl: expected welcome, got message %d", t)
	}
	w := welcome{
		Status: x.u8(), Epoch: x.u64(), Shards: int(x.u32()),
		CkptSeq: x.u64(), Seed: x.u64(),
		NodesPerShard: int(x.u32()), Dims: int(x.u32()),
	}
	return w, x.err
}

func encodeRecordsFrame(f recordsFrame) ([]byte, error) {
	x := &b{}
	x.u8(msgRecords)
	x.u32(uint32(f.Shard))
	x.u64(f.Seg)
	x.u64(f.Pos)
	x.u64(f.Epoch)
	x.u32(uint32(len(f.Recs)))
	w := &sliceWriter{}
	if _, err := wal.EncodeRecords(w, f.Recs); err != nil {
		return nil, err
	}
	x.bytes(w.buf)
	return x.buf, nil
}

type sliceWriter struct{ buf []byte }

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

func decodeRecordsFrame(x *r) (recordsFrame, error) {
	f := recordsFrame{
		Shard: int(x.u32()), Seg: x.u64(), Pos: x.u64(), Epoch: x.u64(),
	}
	count := int(x.u32())
	blob := x.bytes()
	if x.err != nil {
		return f, x.err
	}
	recs, err := wal.DecodeRecords(blob)
	if err != nil {
		return f, err
	}
	if len(recs) != count {
		return f, fmt.Errorf("repl: frame carries %d records, header says %d", len(recs), count)
	}
	f.Recs = recs
	return f, nil
}

func encodeCkptFrame(f ckptFrame) []byte {
	x := &b{}
	x.u8(msgCheckpoint)
	x.u64(f.Seq)
	x.u64(f.Epoch)
	x.u32(uint32(len(f.FirstSegs)))
	for _, s := range f.FirstSegs {
		x.u64(s)
	}
	x.bytes(f.Data)
	return x.buf
}

func decodeCkptFrame(x *r) (ckptFrame, error) {
	f := ckptFrame{Seq: x.u64(), Epoch: x.u64()}
	n := int(x.u32())
	if n > 1<<16 {
		return f, fmt.Errorf("repl: checkpoint frame claims %d shards", n)
	}
	if x.err == nil {
		f.FirstSegs = make([]uint64, n)
		for i := range f.FirstSegs {
			f.FirstSegs[i] = x.u64()
		}
	}
	f.Data = append([]byte(nil), x.bytes()...)
	return f, x.err
}

func encodeHeartbeat(h heartbeat) []byte {
	x := &b{}
	x.u8(msgHeartbeat)
	x.u64(h.Epoch)
	x.u32(uint32(len(h.Pos)))
	for _, p := range h.Pos {
		x.u64(p.Seg)
		x.u64(p.Pos)
	}
	return x.buf
}

func decodeHeartbeat(x *r) (heartbeat, error) {
	h := heartbeat{Epoch: x.u64()}
	n := int(x.u32())
	if n > 1<<16 {
		return h, fmt.Errorf("repl: heartbeat claims %d shards", n)
	}
	if x.err == nil {
		h.Pos = make([]serve.ReplPos, n)
		for i := range h.Pos {
			h.Pos[i] = serve.ReplPos{Seg: x.u64(), Pos: x.u64()}
		}
	}
	return h, x.err
}
