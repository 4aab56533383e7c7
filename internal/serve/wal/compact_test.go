package wal

import (
	"os"
	"reflect"
	"testing"
)

func TestSegmentHeaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := SegmentPath(dir, 4)
	meta, err := ReadSegmentMeta(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Epoch != 7 || meta.Compacted {
		t.Fatalf("meta %+v, want epoch 7, uncompacted", meta)
	}
	_, got, _, dropped, err := ReadSegmentInfo(path)
	if err != nil || dropped != 0 {
		t.Fatalf("read: %v (dropped %d)", err, dropped)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("records did not survive the header: %+v", got)
	}
}

func TestLegacyHeaderlessSegmentReads(t *testing.T) {
	// Pre-replication segments have records at byte 0; they must
	// still read, as epoch 0.
	dir := t.TempDir()
	path := SegmentPath(dir, 1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if _, err := EncodeRecords(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	meta, got, _, dropped, err := ReadSegmentInfo(path)
	if err != nil || dropped != 0 {
		t.Fatalf("read: %v (dropped %d)", err, dropped)
	}
	if meta.Epoch != 0 {
		t.Fatalf("legacy segment read epoch %d, want 0", meta.Epoch)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("legacy records %+v, want %+v", got, recs)
	}
}

func TestOpenAppendContinuesSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := l.Append(recs[:3]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := SegmentPath(dir, 2)
	// A torn tail past the valid prefix, as a crash leaves it.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.Write([]byte{1, 2, 3, 4, 5})
	f.Close()
	_, got, validSize, dropped, err := ReadSegmentInfo(path)
	if err != nil || len(got) != 3 || dropped != 5 {
		t.Fatalf("after torn tail: %d recs, %d dropped, %v", len(got), dropped, err)
	}

	l2, err := OpenAppend(dir, 2, validSize, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Seg() != 2 {
		t.Fatalf("reopened segment %d, want 2", l2.Seg())
	}
	if err := l2.Append(recs[3:]...); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	meta, all, _, dropped, err := ReadSegmentInfo(path)
	if err != nil || dropped != 0 {
		t.Fatalf("after reopen+append: %v (dropped %d)", err, dropped)
	}
	if meta.Epoch != 3 {
		t.Fatalf("epoch %d after reopen, want 3 (header preserved)", meta.Epoch)
	}
	if !reflect.DeepEqual(all, recs) {
		t.Fatalf("continued segment reads %+v, want %+v", all, recs)
	}
	// A missing segment is created fresh.
	l3, err := OpenAppend(dir, 9, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	l3.Close()
	meta, err = ReadSegmentMeta(SegmentPath(dir, 9))
	if err != nil || meta.Epoch != 5 {
		t.Fatalf("fresh OpenAppend segment meta %+v (%v), want epoch 5", meta, err)
	}
}

func TestCompactRecordsDropsSupersededUpdates(t *testing.T) {
	in := []Record{
		{Kind: KindUpdate, Node: 1, Avail: []float64{1, 1}},                 // superseded
		{Kind: KindUpdate, Node: 2, Avail: []float64{2, 2}},                 // survives
		{Kind: KindJoin, Node: 10, Avail: []float64{3, 3}},                  // survives
		{Kind: KindUpdate, Node: 1, Avail: []float64{4, 4}},                 // superseded
		{Kind: KindUpdate, Node: 1, Announce: true, Avail: []float64{5, 5}}, // survives (last)
		{Kind: KindLeave, Node: 3},                                          // survives
		{Kind: KindTake, Node: 4, Avail: []float64{6, 6}},                   // survives
	}
	want := []Record{in[1], in[2], in[4], in[5], in[6]}
	got := CompactRecords(in)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted to %+v\nwant %+v", got, want)
	}
	// Idempotent: compacting the compacted list changes nothing —
	// the property that lets primary and follower compact a segment
	// independently and converge.
	if again := CompactRecords(got); !reflect.DeepEqual(again, got) {
		t.Fatalf("compaction not idempotent: %+v", again)
	}
	// No superseded updates: input returned as-is.
	stable := []Record{in[1], in[2]}
	if got := CompactRecords(stable); !reflect.DeepEqual(got, stable) {
		t.Fatalf("stable input rewritten: %+v", got)
	}
}

func TestCompactSegmentRewritesFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{Kind: KindUpdate, Node: uint32(i % 3), Avail: []float64{float64(i), 1}})
	}
	recs = append(recs, Record{Kind: KindJoin, Node: 50})
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := SegmentPath(dir, 1)
	before, _ := os.Stat(path)
	saved, err := CompactSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved <= 0 {
		t.Fatalf("compaction saved %d bytes, want > 0", saved)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("file grew: %d -> %d", before.Size(), after.Size())
	}
	meta, got, _, dropped, err := ReadSegmentInfo(path)
	if err != nil || dropped != 0 {
		t.Fatalf("compacted segment read: %v (dropped %d)", err, dropped)
	}
	if !meta.Compacted || meta.Epoch != 2 {
		t.Fatalf("compacted meta %+v, want compacted under epoch 2", meta)
	}
	if want := CompactRecords(recs); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted records %+v\nwant %+v", got, want)
	}
	// Second pass is a no-op (already marked).
	if saved, err := CompactSegment(path); err != nil || saved != 0 {
		t.Fatalf("re-compaction: saved %d, %v; want 0, nil", saved, err)
	}
}

func TestRecordBlobRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	sink := sliceSink{&buf}
	if _, err := EncodeRecords(sink, recs); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("blob round-trip %+v, want %+v", got, recs)
	}
	// A truncated blob is a protocol error, not a silent prefix.
	if _, err := DecodeRecords(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated blob decoded")
	}
}

type sliceSink struct{ buf *[]byte }

func (s sliceSink) Write(p []byte) (int, error) {
	*s.buf = append(*s.buf, p...)
	return len(p), nil
}
