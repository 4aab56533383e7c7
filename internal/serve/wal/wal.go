// Package wal is the durability layer of the serving engine: a
// per-shard operation log plus engine-wide checkpoints.
//
// Every mutation a shard applies (update, join, leave, migration
// take) becomes one typed, CRC-framed binary Record appended to the
// shard's current log segment before the write is acknowledged.
// Periodically — and always on a clean Close — the engine captures a
// Checkpoint: each shard's logical state (alive nodes with their
// availability vectors and the next local id), the GlobalID
// forwarding table, and the engine counters. A checkpoint rotates
// every shard onto a fresh log segment, so recovery is
//
//	latest valid checkpoint  +  replay of all newer segments
//
// through the exact same batch-application path live writes use.
// Torn tails are expected (a crash can land mid-record): the reader
// stops at the first record whose frame or CRC does not verify and
// reports how many bytes it dropped, and the recovered engine simply
// does not contain the never-acknowledged suffix.
//
// Append only buffers. Write hands the buffer to the OS, after which
// a process crash loses nothing; Sync is Write plus an fsync, after
// which a host crash loses nothing either. The engine writes every
// logged batch and syncs the ones it acknowledges writers on, under
// its fsync policy; a replication follower's mirror is written per
// frame and synced only where it must be (serve.Engine.ReplApply says
// where and why).
//
// Records are only ever added at the end of the valid prefix, but a
// live segment's file runs ahead of them: Write keeps it zero-filled
// up to the next 64 KiB boundary past its records, so the per-batch
// fsync writes into blocks that are already allocated and commits no
// file-system metadata. A zero tail reads like a torn one (the reader
// stops where the zeros begin). Rotate and Close truncate it, so a
// closed segment holds its header and records and nothing else; only
// the live segment, or one a crash left behind, has a zero tail.
//
// On-disk layout under the engine's DataDir:
//
//	checkpoint-<seq>.ckpt       engine-wide checkpoint (gob + CRC)
//	shard-<i>/wal-<seg>.log     per-shard log segments: header, records,
//	                            and while live a zero tail to a 64 KiB boundary
//
// The package knows nothing about the serve package's types beyond
// the flat Record fields; the mapping op <-> Record lives in serve.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Log is one shard's operation log. It is single-writer: only the
// holder of the owning shard's combiner lock (or, before the shard
// starts, the recovery path) may call its methods; Syncs alone may be
// read from any goroutine.
type Log struct {
	dir  string
	seg  uint64
	f    *os.File
	w    *bufio.Writer
	head int64 // segment-header bytes before the records
	size int64 // record bytes appended to the current segment
	// filled is the file offset the segment is zero-filled up to:
	// Write extends it once the records reach it.
	filled int64
	syncs  atomic.Uint64
}

// zeroChunk is the granule a live segment is zero-filled in. Write
// extends to the next multiple of it, a fixed boundary, so a segment's
// file length depends on its valid length alone and a follower's live
// mirror stays byte-identical to its primary's whatever their sync
// points. At ≈ 55 bytes an update record, one fsync in ≈ 1 200 pays
// for an extension.
const zeroChunk = 64 << 10

// zeros is what Write extends a segment with; it is never written to.
var zeros [zeroChunk]byte

// Segment header (on-disk, since the replication PR): a magic, a
// flags byte and the replication epoch the segment was opened under.
// Legacy segments (records starting at byte 0) read as epoch 0,
// uncompacted.
const segMagic = "PIDWSEG1"

// Segment header flags.
const (
	// SegCompacted marks a segment rewritten by CompactSegment:
	// superseded same-node updates were dropped, so record ordinals
	// in it no longer match the sequence a live tail of the segment
	// observed.
	SegCompacted = 1 << 0
)

// SegHeaderLen is the encoded segment-header size (magic + flags +
// epoch): the offset records start at in segments this package
// writes. Exported for tests that walk record frames directly.
const SegHeaderLen = len(segMagic) + 1 + 8

// segHeaderLen is the internal alias.
const segHeaderLen = SegHeaderLen

// SegmentMeta describes a segment file's header.
type SegmentMeta struct {
	// Epoch is the replication epoch the segment was opened under
	// (0 for legacy headerless segments).
	Epoch uint64
	// Compacted reports the SegCompacted flag.
	Compacted bool
	// header is the decoded header length (0 for legacy segments).
	header int
}

func encodeSegHeader(flags byte, epoch uint64) []byte {
	buf := make([]byte, segHeaderLen)
	copy(buf, segMagic)
	buf[len(segMagic)] = flags
	binary.LittleEndian.PutUint64(buf[len(segMagic)+1:], epoch)
	return buf
}

// decodeSegMeta parses a segment header from the head of data. A
// file without the magic — legacy, empty, or torn mid-header — reads
// as a headerless segment.
func decodeSegMeta(data []byte) SegmentMeta {
	if len(data) < segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		return SegmentMeta{}
	}
	return SegmentMeta{
		Epoch:     binary.LittleEndian.Uint64(data[len(segMagic)+1:]),
		Compacted: data[len(segMagic)]&SegCompacted != 0,
		header:    segHeaderLen,
	}
}

// ReadSegmentMeta reads just a segment's header. A missing file
// reads as an empty headerless segment.
func ReadSegmentMeta(path string) (SegmentMeta, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return SegmentMeta{}, nil
	}
	if err != nil {
		return SegmentMeta{}, err
	}
	defer f.Close()
	buf := make([]byte, segHeaderLen)
	n, _ := io.ReadFull(f, buf)
	return decodeSegMeta(buf[:n]), nil
}

// SegmentPath returns the path of segment seg under dir.
func SegmentPath(dir string, seg uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", seg))
}

// Segments lists the segment numbers present in dir, ascending. A
// missing directory is an empty log, not an error.
func Segments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// createSegment opens a fresh segment file under epoch, truncating
// any leftover of the same number, and makes it durable: the header
// is fsynced, so the epoch a promotion sealed is durable the moment
// its first segment exists, checkpoint or not, and so is the
// directory, so the new entry itself survives a host crash — without
// that, a power failure could drop a whole acked segment even though
// every record in it was fsynced.
func createSegment(dir string, seg, epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(SegmentPath(dir, seg), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(encodeSegHeader(0, epoch)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return f, nil
}

// Create opens a fresh segment seg under dir for appending,
// truncating any leftover file of the same number (a crash between
// segment creation and the checkpoint that references it can leave
// one behind).
func Create(dir string, seg, epoch uint64) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := createSegment(dir, seg, epoch)
	if err != nil {
		return nil, err
	}
	return newLog(dir, seg, f, int64(segHeaderLen), 0), nil
}

// newLog wraps f, positioned at the end of its valid prefix: head
// header bytes and size record bytes, with nothing zero-filled past
// them yet.
func newLog(dir string, seg uint64, f *os.File, head, size int64) *Log {
	return &Log{
		dir: dir, seg: seg, f: f,
		w:    bufio.NewWriterSize(f, 1<<16),
		head: head, size: size, filled: head + size,
	}
}

// OpenAppend reopens an existing segment for appending at size —
// the byte offset of its valid record prefix (header included), as
// recovery established it — truncating any torn or zero tail past
// it; the next Write zero-fills it again, to the same boundary. It is
// how a restarted replication follower continues its mirrored
// segment in place instead of rotating onto a number its primary
// never had. A missing file is created fresh under epoch.
func OpenAppend(dir string, seg uint64, size int64, epoch uint64) (*Log, error) {
	path := SegmentPath(dir, seg)
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if os.IsNotExist(err) {
		return Create(dir, seg, epoch)
	}
	if err != nil {
		return nil, err
	}
	if size < int64(segHeaderLen) {
		// The crash landed inside the header itself (Create/Rotate
		// died mid-write): rewrite it whole, or the segment would
		// grow headerless and fork off the primary's bytes.
		f.Close()
		return Create(dir, seg, epoch)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	meta, err := ReadSegmentMeta(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	head := int64(meta.header)
	return newLog(dir, seg, f, head, size-head), nil
}

// Seg returns the current segment number.
func (l *Log) Seg() uint64 { return l.seg }

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Size returns the bytes appended to the current segment (buffered
// or flushed).
func (l *Log) Size() int64 { return l.size }

// Syncs counts the fsyncs that made records durable: one per Sync,
// and one per segment Rotate or Close seals.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Append encodes and buffers the records. Call Write to hand them to
// the OS, Sync to make them durable; the engine writes every applied
// write batch and syncs per its fsync policy. A
// record is encoded straight into the write buffer, so Append
// allocates nothing.
func (l *Log) Append(recs ...Record) error {
	for i := range recs {
		if n := recordSize(&recs[i]); l.w.Available() < n && l.w.Buffered() > 0 {
			if err := l.w.Flush(); err != nil {
				return err
			}
		}
		buf := appendRecord(l.w.AvailableBuffer(), &recs[i])
		if _, err := l.w.Write(buf); err != nil {
			return err
		}
		l.size += int64(len(buf))
	}
	return nil
}

// Write hands buffered records to the OS, with no fsync: past it a
// process crash loses none of them, a host crash may lose any not yet
// synced. Once the records reach the zero-filled end, it first writes
// zeros from there to the next zeroChunk boundary, so that the next
// fsync commits the extension and every later one until the records
// reach it again commits data alone. An extension that fails (a full
// disk) is not the records' failure: they are written, and the next
// Write tries again.
func (l *Log) Write() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if end := l.head + l.size; end >= l.filled {
		to := (end/zeroChunk + 1) * zeroChunk
		if _, err := l.f.WriteAt(zeros[:to-end], end); err == nil {
			l.filled = to
		}
	}
	return nil
}

// Sync is Write plus an fsync of the segment: every record appended
// so far is durable when it returns.
func (l *Log) Sync() error {
	if err := l.Write(); err != nil {
		return err
	}
	l.syncs.Add(1)
	return l.f.Sync()
}

// seal flushes buffered records, truncates the zero tail and fsyncs:
// a segment that is no longer appended to holds exactly its header
// and records.
func (l *Log) seal() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(l.head + l.size); err != nil {
		return err
	}
	l.syncs.Add(1)
	return l.f.Sync()
}

// Rotate seals and closes the current segment and opens a fresh one
// numbered seg under epoch. Rotation is the checkpoint boundary: a
// checkpoint captured immediately after covers exactly the segments
// before seg.
func (l *Log) Rotate(seg, epoch uint64) error {
	if err := l.seal(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := createSegment(l.dir, seg, epoch)
	if err != nil {
		return err
	}
	l.f, l.seg = f, seg
	l.head, l.size, l.filled = int64(segHeaderLen), 0, int64(segHeaderLen)
	l.w.Reset(f)
	return nil
}

// Close seals and closes the log.
func (l *Log) Close() error {
	if err := l.seal(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// ReadSegmentInfo decodes a segment file in full: its header meta,
// every valid record, the byte length of the valid prefix (header
// included — the offset OpenAppend resumes at), and how many trailing
// bytes were dropped: a torn record, or a live segment's zero tail.
// It stops cleanly at the first torn or corrupt record — a crash
// mid-append is a normal way for a segment to end. A missing file
// reads as an empty segment. The error is non-nil only for real I/O
// failures.
func ReadSegmentInfo(path string) (meta SegmentMeta, recs []Record, validSize, dropped int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return SegmentMeta{}, nil, 0, 0, nil
	}
	if err != nil {
		return SegmentMeta{}, nil, 0, 0, err
	}
	meta = decodeSegMeta(data)
	it := IterRecords(data, meta.header)
	for it.Next() {
		recs = append(recs, it.Record())
	}
	return meta, recs, it.Offset(), it.Dropped(), nil
}

// RemoveSegmentsBelow deletes segments of dir numbered < seg —
// everything a new checkpoint has made redundant.
func RemoveSegmentsBelow(dir string, seg uint64) error {
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s < seg {
			if err := os.Remove(SegmentPath(dir, s)); err != nil {
				return err
			}
		}
	}
	return nil
}
