package wire

import (
	"encoding/binary"
	"fmt"
	"net"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
)

// ReplSubscribe is an OpReplSubscribe request: the follower's shard
// count and, per shard, where its mirror's log ends. Pos is empty for
// a follower with no state, which asks for a bootstrap. The header
// epoch is the follower's epoch.
type ReplSubscribe struct {
	Shards int
	Pos    []serve.ReplPos
}

// ReplWelcome is the response to a subscribe: whether the stream
// resumes at the follower's positions or bootstraps from a checkpoint
// image, and the primary's engine shape.
type ReplWelcome struct {
	Resume        bool
	Shards        int
	Seed          uint64
	NodesPerShard int
	Dims          int
}

// ReplRecords is one pushed record batch: records appended to shard's
// log segment Seg from record ordinal Pos on.
type ReplRecords struct {
	Shard    int
	Seg, Pos uint64
	Recs     []wal.Record
}

// ReplCheckpoint is one chunk of a checkpoint image: Size is the whole
// image's length, Data this chunk's bytes. The chunks of an image
// travel back to back, in order.
type ReplCheckpoint struct {
	Seq  uint64
	Size uint64
	Data []byte
}

// ReplHeartbeat carries the primary's clock at send (Unix
// nanoseconds) and its live log positions, for the follower's lag
// gauges.
type ReplHeartbeat struct {
	Sent int64
	Pos  []serve.ReplPos
}

// ReplSource is the replication server behind a listener
// (repl.Server). Subscribe decides one follower's subscription; epoch
// is the follower's. It returns the welcome and the stream that owns
// the connection from then on, or the refusal to answer with: a
// serve sentinel, wrapped or not (ErrReadOnly, ErrFenced, ErrClosed,
// ErrBadRequest).
// The stream is called exactly once; out holds the responses still
// owed on the connection, the welcome last, for it to write first.
// The connection is closed once it returns.
type ReplSource interface {
	Subscribe(epoch uint64, sub *ReplSubscribe) (ReplWelcome, func(c net.Conn, reqID uint32, out []byte), error)
}

// replChunkRecords caps the records of one OpReplRecords frame.
const replChunkRecords = 512

// replChunkBytes caps the image bytes of one OpReplCheckpoint frame:
// the payload cap less the chunk's sequence and size fields.
const replChunkBytes = MaxPayload - 16

// AppendReplSubscribe appends a subscribe request.
func AppendReplSubscribe(dst []byte, reqID uint32, epoch uint64, s *ReplSubscribe) []byte {
	dst, off := beginFrame(dst, OpReplSubscribe, 0, reqID, epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(s.Shards))
	dst = appendPositions(dst, s.Pos)
	sealFrame(dst, off)
	return dst
}

// DecodeReplSubscribe decodes a subscribe request payload into s,
// reusing s.Pos's backing array.
func DecodeReplSubscribe(payload []byte, s *ReplSubscribe) error {
	d := dec{buf: payload}
	s.Shards = int(d.u32())
	s.Pos = decodePositions(&d, s.Pos)
	if d.err != nil || len(d.buf) != 0 {
		return errTruncated
	}
	return nil
}

// AppendReplWelcome appends the response to a subscribe.
func AppendReplWelcome(dst []byte, reqID uint32, epoch uint64, w *ReplWelcome) []byte {
	dst, off := beginFrame(dst, OpReplSubscribe, FlagResponse, reqID, epoch)
	var f byte
	if w.Resume {
		f = 1
	}
	dst = append(dst, f)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Shards))
	dst = binary.LittleEndian.AppendUint64(dst, w.Seed)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.NodesPerShard))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(w.Dims))
	sealFrame(dst, off)
	return dst
}

// DecodeReplWelcome decodes a welcome payload into w.
func DecodeReplWelcome(payload []byte, w *ReplWelcome) error {
	d := dec{buf: payload}
	f := d.u8()
	w.Resume = f == 1
	w.Shards = int(d.u32())
	w.Seed = d.u64()
	w.NodesPerShard = int(d.u32())
	w.Dims = int(d.u32())
	if d.err != nil || len(d.buf) != 0 || f > 1 {
		return errTruncated
	}
	return nil
}

// AppendReplRecords appends r's records as consecutive OpReplRecords
// frames of at most 512 records and MaxPayload bytes each; every
// frame's Pos is the ordinal of its own first record.
func AppendReplRecords(dst []byte, reqID uint32, epoch uint64, r *ReplRecords) []byte {
	recs, pos := r.Recs, r.Pos
	for len(recs) > 0 {
		var off int
		dst, off = beginFrame(dst, OpReplRecords, FlagResponse, reqID, epoch)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Shard))
		dst = binary.LittleEndian.AppendUint64(dst, r.Seg)
		dst = binary.LittleEndian.AppendUint64(dst, pos)
		count := len(dst)
		dst = append(dst, 0, 0) // the record count, known once the frame is full
		n := 0
		for n < len(recs) && n < replChunkRecords {
			mark := len(dst)
			dst = wal.AppendRecords(dst, recs[n:n+1])
			// One record always fits: its dimension is a u16.
			if n > 0 && len(dst)-off-HeaderSize > MaxPayload {
				dst = dst[:mark]
				break
			}
			n++
		}
		binary.LittleEndian.PutUint16(dst[count:], uint16(n))
		sealFrame(dst, off)
		recs, pos = recs[n:], pos+uint64(n)
	}
	return dst
}

// DecodeReplRecords decodes a record-batch payload into r. r.Recs is
// allocated afresh, so a decoded batch may be kept across decodes.
func DecodeReplRecords(payload []byte, r *ReplRecords) error {
	d := dec{buf: payload}
	r.Shard = int(d.u32())
	r.Seg = d.u64()
	r.Pos = d.u64()
	n := int(d.u16())
	r.Recs = nil
	if d.err != nil || n == 0 || n > replChunkRecords {
		return errTruncated
	}
	// Walk the blob rather than decode it whole: the count bounds what
	// is allocated, whatever the blob holds.
	r.Recs = make([]wal.Record, 0, n)
	it := wal.IterRecords(d.buf, 0)
	for len(r.Recs) < n && it.Next() {
		r.Recs = append(r.Recs, it.Record())
	}
	if len(r.Recs) != n || it.Dropped() != 0 {
		return fmt.Errorf("wire: record frame of %d records: corrupt blob at byte %d of %d", n, it.Offset(), len(d.buf))
	}
	return nil
}

// AppendReplCheckpoint appends a checkpoint image as consecutive
// OpReplCheckpoint frames, each chunk under MaxPayload.
func AppendReplCheckpoint(dst []byte, reqID uint32, epoch uint64, seq uint64, image []byte) []byte {
	for off := 0; ; {
		n := min(len(image)-off, replChunkBytes)
		dst = appendCheckpointChunk(dst, reqID, epoch, &ReplCheckpoint{
			Seq: seq, Size: uint64(len(image)), Data: image[off : off+n],
		})
		if off += n; off >= len(image) {
			return dst
		}
	}
}

// appendCheckpointChunk appends one OpReplCheckpoint frame.
func appendCheckpointChunk(dst []byte, reqID uint32, epoch uint64, c *ReplCheckpoint) []byte {
	dst, off := beginFrame(dst, OpReplCheckpoint, FlagResponse, reqID, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, c.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, c.Size)
	dst = append(dst, c.Data...)
	sealFrame(dst, off)
	return dst
}

// DecodeReplCheckpoint decodes a checkpoint chunk payload into c;
// c.Data aliases the payload.
func DecodeReplCheckpoint(payload []byte, c *ReplCheckpoint) error {
	d := dec{buf: payload}
	c.Seq = d.u64()
	c.Size = d.u64()
	if d.err != nil || uint64(len(d.buf)) > c.Size {
		return errTruncated
	}
	c.Data = d.buf
	return nil
}

// AppendReplHeartbeat appends a heartbeat frame.
func AppendReplHeartbeat(dst []byte, reqID uint32, epoch uint64, h *ReplHeartbeat) []byte {
	dst, off := beginFrame(dst, OpReplHeartbeat, FlagResponse, reqID, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(h.Sent))
	dst = appendPositions(dst, h.Pos)
	sealFrame(dst, off)
	return dst
}

// DecodeReplHeartbeat decodes a heartbeat payload into h, reusing
// h.Pos's backing array.
func DecodeReplHeartbeat(payload []byte, h *ReplHeartbeat) error {
	d := dec{buf: payload}
	h.Sent = int64(d.u64())
	h.Pos = decodePositions(&d, h.Pos)
	if d.err != nil || len(d.buf) != 0 {
		return errTruncated
	}
	return nil
}

// appendPositions encodes log positions as a u32 count plus a
// (segment, record) pair of u64s each.
func appendPositions(dst []byte, pos []serve.ReplPos) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pos)))
	for _, p := range pos {
		dst = binary.LittleEndian.AppendUint64(dst, p.Seg)
		dst = binary.LittleEndian.AppendUint64(dst, p.Pos)
	}
	return dst
}

// decodePositions decodes positions into dst's backing array. The
// count is checked against the bytes left before anything is
// allocated.
func decodePositions(d *dec, dst []serve.ReplPos) []serve.ReplPos {
	n := uint64(d.u32())
	if d.err != nil || n > uint64(len(d.buf))/16 {
		d.err = errTruncated
		return dst[:0]
	}
	dst = dst[:0]
	for ; n > 0; n-- {
		dst = append(dst, serve.ReplPos{Seg: d.u64(), Pos: d.u64()})
	}
	return dst
}
