package wal

import (
	"os"
	"path/filepath"
)

// CompactRecords drops superseded records from one segment's record
// sequence: an update is dead weight once a later update of the same
// node sits in the same segment — replaying both lands on the same
// availability as replaying the last alone. Only the final update
// per node survives (joins, leaves and takes always do), and record
// order is otherwise preserved. Local node ids are never reused, so
// two updates of one id in one segment can have no join/leave/take
// between them, which is what makes the drop safe; what compaction
// does shift is index-diffusion timing (dropped announces never
// re-announce at replay), the same slack recovery's re-batched
// replay already has. The function is pure and deterministic —
// a primary and its followers compact a segment to identical bytes
// — and idempotent.
func CompactRecords(recs []Record) []Record {
	last := make(map[uint32]int, len(recs))
	dropped := 0
	for i, r := range recs {
		if r.Kind != KindUpdate {
			continue
		}
		if _, ok := last[r.Node]; ok {
			dropped++
		}
		last[r.Node] = i
	}
	if dropped == 0 {
		return recs
	}
	out := make([]Record, 0, len(recs)-dropped)
	for i, r := range recs {
		if r.Kind == KindUpdate && last[r.Node] != i {
			continue
		}
		out = append(out, r)
	}
	return out
}

// CompactSegment rewrites a closed segment file with its superseded
// updates dropped, marking the header SegCompacted. The rewrite is
// atomic (temp file + rename + dir sync); a crash leaves either the
// old or the new file, both valid. Torn trailing bytes are shed with
// the rewrite. A segment that would not shrink — or is already
// compacted — is left untouched. Returns the bytes saved.
func CompactSegment(path string) (int64, error) {
	meta, recs, validSize, dropped, err := ReadSegmentInfo(path)
	if err != nil || meta.Compacted {
		return 0, err
	}
	if validSize == 0 && dropped == 0 { // missing or empty: nothing to do
		return 0, nil
	}
	kept := CompactRecords(recs)
	if len(kept) == len(recs) && dropped == 0 {
		return 0, nil
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	img := AppendRecords(encodeSegHeader(SegCompacted, meta.Epoch), kept)
	if _, err := f.Write(img); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	saved := validSize + dropped - int64(len(img))
	if saved < 0 {
		saved = 0
	}
	return saved, nil
}
