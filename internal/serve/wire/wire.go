// Package wire is the binary serving edge of the engine: a compact
// framed request/response protocol served over persistent TCP
// connections, built to close the gap between the engine's in-process
// throughput (~1.3M cached queries/sec) and what a JSON/HTTP
// front-end can push through a socket (~12k/sec).
//
// The frame discipline is the op-log's (internal/serve/wal) lifted
// onto the request path: fixed-width little-endian header carrying a
// magic byte, protocol version, op code, request id, replication
// epoch and an IEEE CRC32 that covers header and payload both, so a
// single flipped bit anywhere in a frame is rejected. The header is
// also a cheap stateless packet filter: magic, version, op range and
// payload bound are checked before a single byte of payload is read
// or allocated — garbage closes the connection without costing an
// allocation, the mas-bandwidth/udpx gateway discipline.
//
//	offset size field
//	0      1    magic (0xC9)
//	1      1    version (1)
//	2      1    op (query=1 update=2 join=3 leave=4 stats=5
//	            fed-take=7 fed-summary=8 repl-subscribe=9
//	            repl-records=10 repl-checkpoint=11
//	            repl-heartbeat=12; 6 is retired)
//	3      1    flags (1=response, 2=error)
//	4      4    request id (echoed verbatim in the response)
//	8      8    epoch (requests: expected epoch, 0 = don't care;
//	            responses: the server's current epoch)
//	16     4    payload length
//	20     4    CRC32-IEEE over bytes [0,20) + payload
//
// Concurrency model: the server runs one handler goroutine per
// connection. A handler decodes and serves requests strictly in
// order, appending responses to a per-connection buffer that is
// written in one syscall as soon as the read side would block — so
// pipelined clients amortize both the syscall and the flush across
// whole bursts, which is what carries a single core past the 200k
// queries/sec mark. Responses therefore come back in request order;
// the client's FIFO pipeline relies on it.
//
// Writes are epoch-fenced: a request stamped with a newer epoch than
// the engine's seals a deposed primary on contact (Engine.Fence), and a
// stale-epoch write is refused as a wrapped serve.ErrFenced. Every
// rejection's code, retry hint and primary address come from its row
// in serve's rejection table (serve.RejectionOf), the row the HTTP
// edge answers from too: a read-only follower's CodeReadOnly names its
// primary and carries the retry hint, as its HTTP 503 does.
//
// Replication is a stream on the same protocol and port. A follower
// sends one OpReplSubscribe carrying its epoch; a newer one seals
// this engine through the same fence as a write. The response is the
// welcome, after which the server hands the connection to the
// replication server attached with SetReplSource, and the connection
// carries only the frames it pushes — under the same header filter
// and CRC as every other frame.
//
// The hot query path allocates nothing in encode or decode (asserted
// by test): requests decode into caller-owned reusable structs,
// responses are appended to caller-owned buffers. JSON stays the
// debug surface (OpStats returns the engine's Stats as JSON; the
// HTTP handler keeps serving next to the wire listener).
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// Frame header layout.
const (
	// Magic is the first byte of every frame; anything else is not
	// this protocol and closes the connection unread.
	Magic = 0xC9
	// Version is the protocol version; bumped on incompatible frame
	// or payload changes.
	Version = 1
	// HeaderSize is the fixed frame header length.
	HeaderSize = 24
	// crcOff is where the CRC field starts; the CRC covers
	// [0,crcOff) of the header plus the whole payload.
	crcOff = 20
)

// Op codes. The values are wire format; do not renumber.
const (
	OpQuery  byte = 1
	OpUpdate byte = 2
	OpJoin   byte = 3
	OpLeave  byte = 4
	OpStats  byte = 5
	// Federation ops. OpFedTake removes a node and returns its
	// availability for re-homing in another process. OpFedSummary asks
	// a member for its availability summary, the routers' pruning
	// feed. Op 6 (fed-query, a query prefixed with a federation-map
	// version) is retired: a router's leg is a plain OpQuery, and the
	// filter refuses 6 so the number is never reused by accident.
	opRetired    byte = 6
	OpFedTake    byte = 7
	OpFedSummary byte = 8
	// Replication ops. OpReplSubscribe is a follower's request to
	// stream a primary's op-log; its response is the welcome. From then
	// on the connection carries only frames the server pushes, each
	// response-flagged under the subscribe's request id with the
	// primary's epoch in its header: record batches (OpReplRecords),
	// checkpoint images in chunks (OpReplCheckpoint) and heartbeats
	// (OpReplHeartbeat).
	OpReplSubscribe  byte = 9
	OpReplRecords    byte = 10
	OpReplCheckpoint byte = 11
	OpReplHeartbeat  byte = 12
	opMax            byte = 12
)

// Header flags.
const (
	// FlagResponse marks a frame traveling server -> client.
	FlagResponse byte = 1 << 0
	// FlagError marks a response whose payload is an Error, not the
	// op's result.
	FlagError byte = 1 << 1

	flagsMask = FlagResponse | FlagError
)

// MaxPayload bounds any frame's payload; a header claiming more is
// rejected by the stateless filter before allocation. Generous for
// stats JSON and large candidate sets; checkpoint images travel in
// chunks under it.
const MaxPayload = 1 << 20

// Query op flags (first payload byte of an OpQuery request).
const (
	qfConsistent byte = 1 << 0
	qfNoCache    byte = 1 << 1
	// qfScopeOne rides on every consistent query: a consistent frame
	// without it is refused (DecodeQuery).
	qfScopeOne byte = 1 << 2
)

// Query response flags.
const (
	rfCached byte = 1 << 0
)

// Fed-take response flags.
const (
	// tfDegraded: the take applied but its log record did not make
	// it to disk (ErrWAL) — the availability is valid, the caller
	// decides whether to proceed.
	tfDegraded byte = 1 << 0
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// Header is a parsed frame header.
type Header struct {
	Op    byte
	Flags byte
	ReqID uint32
	Epoch uint64
	PLen  uint32
	crc   uint32
}

// FilterHeader is the stateless packet filter: it validates a raw
// header's magic, version, op code, flag bits and payload bound
// without touching anything beyond the 24 header bytes and without
// allocating. It is the first thing the read loop runs on a frame; one
// failing it closes the connection — after garbage the stream cannot
// be reframed.
func FilterHeader(hdr []byte) error {
	if len(hdr) < HeaderSize {
		return errShortHeader
	}
	if hdr[0] != Magic {
		return errBadMagic
	}
	if hdr[1] != Version {
		return errBadVersion
	}
	if op := hdr[2]; op == 0 || op > opMax || op == opRetired {
		return errBadOp
	}
	if hdr[3]&^flagsMask != 0 {
		return errBadFlags
	}
	if plen := binary.LittleEndian.Uint32(hdr[16:]); plen > MaxPayload {
		return errOversize
	}
	return nil
}

// Filter errors (allocated once; the filter itself allocates
// nothing).
var (
	errShortHeader = fmt.Errorf("wire: short header")
	errBadMagic    = fmt.Errorf("wire: bad magic byte")
	errBadVersion  = fmt.Errorf("wire: unsupported protocol version")
	errBadOp       = fmt.Errorf("wire: unknown op code")
	errBadFlags    = fmt.Errorf("wire: invalid flag bits")
	errOversize    = fmt.Errorf("wire: payload exceeds cap")
	errBadCRC      = fmt.Errorf("wire: frame checksum mismatch")
	errTruncated   = fmt.Errorf("wire: truncated payload")
)

// ParseHeader filters and decodes a raw header.
func ParseHeader(hdr []byte) (Header, error) {
	if err := FilterHeader(hdr); err != nil {
		return Header{}, err
	}
	return Header{
		Op:    hdr[2],
		Flags: hdr[3],
		ReqID: binary.LittleEndian.Uint32(hdr[4:]),
		Epoch: binary.LittleEndian.Uint64(hdr[8:]),
		PLen:  binary.LittleEndian.Uint32(hdr[16:]),
		crc:   binary.LittleEndian.Uint32(hdr[20:]),
	}, nil
}

// VerifyFrame checks the frame CRC over the raw header's first 20
// bytes plus the payload. Allocation-free.
func VerifyFrame(hdr, payload []byte) bool {
	if len(hdr) < HeaderSize {
		return false
	}
	crc := crc32.Update(crc32.Checksum(hdr[:crcOff], crcTable), crcTable, payload)
	return crc == binary.LittleEndian.Uint32(hdr[crcOff:])
}

// beginFrame appends a frame header with plen and crc left zero;
// sealFrame fills them once the payload is appended. off is where
// the frame starts in the returned buffer.
func beginFrame(dst []byte, op, flags byte, reqID uint32, epoch uint64) ([]byte, int) {
	off := len(dst)
	dst = append(dst,
		Magic, Version, op, flags,
		0, 0, 0, 0, // reqID
		0, 0, 0, 0, 0, 0, 0, 0, // epoch
		0, 0, 0, 0, // plen
		0, 0, 0, 0, // crc
	)
	binary.LittleEndian.PutUint32(dst[off+4:], reqID)
	binary.LittleEndian.PutUint64(dst[off+8:], epoch)
	return dst, off
}

// sealFrame finalizes the frame beginning at off: everything past
// its header is the payload.
func sealFrame(buf []byte, off int) {
	payload := buf[off+HeaderSize:]
	binary.LittleEndian.PutUint32(buf[off+16:], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(buf[off:off+crcOff], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(buf[off+crcOff:], crc)
}

// Error is the decoded payload of a FlagError response.
type Error struct {
	// Code is one of serve's Code* constants.
	Code uint16
	// RetryAfter is the server's retry hint (the rejection rows that
	// carry one); zero means none.
	RetryAfter time.Duration
	// Primary is the address writes should go to (read-only
	// followers that know their primary).
	Primary string
	// Msg is the server's human-readable error string.
	Msg string
}

func (e *Error) Error() string {
	s := fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg)
	if e.Primary != "" {
		s += " (primary " + e.Primary + ")"
	}
	return s
}

// AppendError appends an error-response frame for request h.
func AppendError(dst []byte, op byte, reqID uint32, epoch uint64, code uint16, retryAfter time.Duration, primary, msg string) []byte {
	dst, off := beginFrame(dst, op, FlagResponse|FlagError, reqID, epoch)
	dst = binary.LittleEndian.AppendUint16(dst, code)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(retryAfter/time.Millisecond))
	dst = appendString(dst, primary)
	dst = appendString(dst, msg)
	sealFrame(dst, off)
	return dst
}

// DecodeError decodes an error payload into e (strings allocate;
// this is the cold path by definition).
func DecodeError(payload []byte, e *Error) error {
	d := dec{buf: payload}
	e.Code = d.u16()
	e.RetryAfter = time.Duration(d.u32()) * time.Millisecond
	e.Primary = string(d.str())
	e.Msg = string(d.str())
	if d.err != nil || len(d.buf) != 0 {
		return errTruncated
	}
	return nil
}

func appendString(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// dec is a little-endian payload reader; failed reads poison it (the
// wal decoding discipline).
type dec struct {
	buf []byte
	err error
}

func (d *dec) u8() byte {
	if d.err != nil || len(d.buf) < 1 {
		d.err = errTruncated
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || len(d.buf) < 2 {
		d.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.err = errTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *dec) str() []byte {
	n := int(d.u16())
	if d.err != nil || len(d.buf) < n {
		d.err = errTruncated
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}
