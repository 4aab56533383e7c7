package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Kind types a log record. The values are part of the on-disk format
// and must not be renumbered.
type Kind uint8

const (
	// KindUpdate is a SetAvailability (optionally announced).
	KindUpdate Kind = 1
	// KindJoin is a node join; Node records the id the backend
	// assigned, which replay verifies against its own Join result.
	KindJoin Kind = 2
	// KindLeave is a node leave (engine-initiated; drops forwarding).
	KindLeave Kind = 3
	// KindTake is the source half of a migration: the node leaves its
	// shard, availability in hand. The matching KindJoin (with
	// Repoint set) lands in the destination shard's log.
	KindTake Kind = 4
)

// Record is one durable shard mutation.
type Record struct {
	Kind Kind
	// Node is the shard-local node id: the target of an update, leave
	// or take, or the id a join assigned.
	Node uint32
	// Announce marks an update that also pushed an out-of-cycle state
	// update into the index.
	Announce bool
	// Avail is the availability vector carried by updates and joins
	// (nil when the join carried none).
	Avail []float64
	// Repoint marks a join that completed a migration: replay
	// re-installs forwarding of external id Ext from former physical
	// id Old to the newly assigned physical id.
	Repoint  bool
	Ext, Old uint64
}

// Record flags (on-disk).
const (
	flagAnnounce = 1 << 0
	flagAvail    = 1 << 1
	flagRepoint  = 1 << 2
)

// Frame: u32 payload length, u32 IEEE CRC of the payload, payload.
// Payload: u8 kind, u8 flags, u32 node, [u16 dim, dim x f64 avail],
// [u64 ext, u64 old]. All little-endian.

// FrameHeader is the size of a frame's length+CRC header.
const FrameHeader = 8

// maxPayload bounds a sane record; anything larger fails the frame
// check and truncates the log there instead of allocating wildly.
const maxPayload = 1 << 20

var crcTable = crc32.MakeTable(crc32.IEEE)

// putFrameHeader writes payload's frame header — its length and CRC —
// into hdr[:FrameHeader]. Every frame of log segments and capture
// trace files is built by it.
func putFrameHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
}

// AppendFrame appends one CRC frame carrying payload to dst. Payloads
// NextFrame is to read back stay under its 1 MiB limit, or they read
// as torn tails.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [FrameHeader]byte
	putFrameHeader(hdr[:], payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// NextFrame parses the CRC frame at the head of data, returning its
// payload (aliasing data) and the framed byte count. ok false means a
// short, oversized (payload above the record cap) or CRC-failing head:
// the torn-tail signal.
func NextFrame(data []byte) (payload []byte, n int, ok bool) {
	if len(data) < FrameHeader {
		return nil, 0, false
	}
	n32 := binary.LittleEndian.Uint32(data)
	if n32 > maxPayload || len(data)-FrameHeader < int(n32) {
		return nil, 0, false
	}
	plen := int(n32)
	p := data[FrameHeader : FrameHeader+plen]
	if crc32.Checksum(p, crcTable) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, false
	}
	return p, FrameHeader + plen, true
}

// recordSize is the framed size of r's encoding.
func recordSize(r *Record) int {
	n := FrameHeader + 6
	if r.Avail != nil {
		n += 2 + 8*len(r.Avail)
	}
	if r.Repoint {
		n += 16
	}
	return n
}

// appendRecord appends r's frame to dst: the one record encoder
// behind segment files, compaction, the replication wire and capture
// traces. It allocates only when dst must grow.
func appendRecord(dst []byte, r *Record) []byte {
	var flags byte
	if r.Announce {
		flags |= flagAnnounce
	}
	if r.Avail != nil {
		flags |= flagAvail
	}
	if r.Repoint {
		flags |= flagRepoint
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, byte(r.Kind), flags) // frame header, filled last
	dst = binary.LittleEndian.AppendUint32(dst, r.Node)
	if r.Avail != nil {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Avail)))
		for _, v := range r.Avail {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	if r.Repoint {
		dst = binary.LittleEndian.AppendUint64(dst, r.Ext)
		dst = binary.LittleEndian.AppendUint64(dst, r.Old)
	}
	putFrameHeader(dst[start:], dst[start+FrameHeader:])
	return dst
}

// AppendRecords appends recs to dst in the CRC-framed record encoding
// shared by segment files and the replication wire (which is what
// keeps a follower's rebuilt segments byte-identical to its
// primary's).
func AppendRecords(dst []byte, recs []Record) []byte {
	for i := range recs {
		dst = appendRecord(dst, &recs[i])
	}
	return dst
}

// DecodeRecords parses a blob of framed records, requiring the blob
// to be exactly a whole number of valid records — a torn or corrupt
// record inside a replication frame is a protocol error, not a crash
// artifact.
func DecodeRecords(data []byte) ([]Record, error) {
	var recs []Record
	it := IterRecords(data, 0)
	for it.Next() {
		recs = append(recs, it.Record())
	}
	if it.Dropped() != 0 {
		return nil, fmt.Errorf("wal: corrupt record blob at byte %d of %d", it.Offset(), len(data))
	}
	return recs, nil
}

// RecordIter walks the valid framed-record prefix of an in-memory
// segment image or record blob — the one torn-tail-tolerant reader
// behind ReadSegmentInfo, DecodeRecords and the capture trace
// reader, so CRC verification and truncation handling
// exist exactly once.
type RecordIter struct {
	data []byte
	off  int
	rec  Record
}

// IterRecords positions an iterator at byte offset off of data
// (a segment's decoded header length for segment images, 0 for raw
// record blobs).
func IterRecords(data []byte, off int) *RecordIter {
	if off > len(data) {
		off = len(data)
	}
	return &RecordIter{data: data, off: off}
}

// Next advances to the next record, reporting false at the end of
// the valid prefix — a clean end or a torn tail; Dropped tells them
// apart.
func (it *RecordIter) Next() bool {
	rec, n, ok := decodeRecord(it.data[it.off:])
	if !ok {
		return false
	}
	it.rec = rec
	it.off += n
	return true
}

// Record returns the record the last successful Next decoded.
func (it *RecordIter) Record() Record { return it.rec }

// Offset is the byte offset just past the last valid record — the
// valid-prefix size OpenAppend resumes appending at.
func (it *RecordIter) Offset() int64 { return int64(it.off) }

// Dropped is how many trailing bytes follow the valid prefix (0 when
// the input ended exactly on a record boundary): a torn tail, or the
// zero-filled tail of a live or crashed segment. A zero frame reads
// as length 0 with CRC 0, the CRC of nothing, so it passes the frame
// check and fails the payload's 6-byte minimum: the walk stops where
// the zeros begin, with no check of its own.
func (it *RecordIter) Dropped() int64 { return int64(len(it.data)) - int64(it.off) }

// decodeRecord parses one framed record from the head of data. ok is
// false when the frame is short, oversized, or fails its CRC — the
// torn-tail signal.
func decodeRecord(data []byte) (rec Record, n int, ok bool) {
	p, n, ok := NextFrame(data)
	if !ok {
		return rec, 0, false
	}
	rec, ok = decodeRecordPayload(p)
	if !ok {
		return rec, 0, false
	}
	return rec, n, true
}

// decodeRecordPayload parses a record from one verified frame
// payload.
func decodeRecordPayload(p []byte) (rec Record, ok bool) {
	if len(p) < 6 {
		return rec, false
	}
	rec.Kind = Kind(p[0])
	flags := p[1]
	if flags&^(flagAnnounce|flagAvail|flagRepoint) != 0 {
		return rec, false // no encoder sets them: a decoded record re-encodes to its exact bytes
	}
	rec.Node = binary.LittleEndian.Uint32(p[2:])
	off := 6
	rec.Announce = flags&flagAnnounce != 0
	if flags&flagAvail != 0 {
		if len(p) < off+2 {
			return rec, false
		}
		dim := int(binary.LittleEndian.Uint16(p[off:]))
		off += 2
		if len(p) < off+8*dim {
			return rec, false
		}
		rec.Avail = make([]float64, dim)
		for i := range rec.Avail {
			rec.Avail[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			off += 8
		}
	}
	if flags&flagRepoint != 0 {
		if len(p) < off+16 {
			return rec, false
		}
		rec.Repoint = true
		rec.Ext = binary.LittleEndian.Uint64(p[off:])
		rec.Old = binary.LittleEndian.Uint64(p[off+8:])
		off += 16
	}
	if off != len(p) {
		return rec, false
	}
	return rec, true
}
