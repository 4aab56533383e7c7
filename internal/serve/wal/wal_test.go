package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindUpdate, Node: 3, Announce: true, Avail: []float64{1.5, 0, 2.25}},
		{Kind: KindJoin, Node: 64, Avail: []float64{0.5, 0.5, 0.5}},
		{Kind: KindJoin, Node: 65},
		{Kind: KindJoin, Node: 66, Repoint: true, Ext: 7, Old: 1<<32 | 9, Avail: []float64{4, 4, 4}},
		{Kind: KindLeave, Node: 12},
		{Kind: KindTake, Node: 9},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := sampleRecords()
	for i := range recs {
		if _, err := encodeRecord(&buf, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	for i := range recs {
		got, n, ok := decodeRecord(data)
		if !ok {
			t.Fatalf("record %d did not decode", i)
		}
		if !reflect.DeepEqual(got, recs[i]) {
			t.Fatalf("record %d round-tripped to %+v, want %+v", i, got, recs[i])
		}
		data = data[n:]
	}
	if len(data) != 0 {
		t.Fatalf("%d trailing bytes after decoding all records", len(data))
	}
}

func TestLogAppendReadSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, 1)
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
	_, got, _, dropped, err := ReadSegmentInfo(SegmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d bytes from an intact segment", dropped)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("read %+v, want %+v", got, recs)
	}
}

// TestTornTail truncates a segment at every byte offset and checks
// the reader always returns the longest intact record prefix.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	var ends []int64 // byte offset after each record
	for i := range recs {
		if err := l.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := SegmentPath(dir, 1)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(whole); cut++ {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, _, dropped, err := ReadSegmentInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		// ends are record-relative; the file leads with the segment
		// header, and a cut inside the header reads as an empty
		// headerless segment that drops every byte.
		recCut := int64(cut) - int64(segHeaderLen)
		want := 0
		if recCut >= 0 {
			for want < len(ends) && ends[want] <= recCut {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), want)
		}
		wantDrop := int64(cut)
		if recCut >= 0 {
			intact := int64(0)
			if want > 0 {
				intact = ends[want-1]
			}
			wantDrop = recCut - intact
		}
		if dropped != wantDrop {
			t.Fatalf("cut %d: dropped %d bytes, want %d", cut, dropped, wantDrop)
		}
	}
}

func TestCorruptRecordTruncates(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	var mid int64
	{
		l2, _ := Create(t.TempDir(), 1, 1)
		l2.Append(recs[0], recs[1])
		mid = l2.Size()
		l2.Close()
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := SegmentPath(dir, 1)
	data, _ := os.ReadFile(path)
	data[int64(segHeaderLen)+mid+FrameHeader+2] ^= 0xff // flip a payload byte of record 2
	os.WriteFile(path, data, 0o644)
	_, got, _, dropped, err := ReadSegmentInfo(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || dropped == 0 {
		t.Fatalf("corrupt third record: recovered %d records (dropped %d), want 2", len(got), dropped)
	}
}

func TestRotateAndSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(dir, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindLeave, Node: 1})
	if err := l.Rotate(2, 1); err != nil {
		t.Fatal(err)
	}
	if l.Seg() != 2 || l.Size() != 0 {
		t.Fatalf("after rotate: seg %d size %d", l.Seg(), l.Size())
	}
	l.Append(Record{Kind: KindLeave, Node: 2})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(segs, []uint64{1, 2}) {
		t.Fatalf("segments %v, want [1 2]", segs)
	}
	if err := RemoveSegmentsBelow(dir, 2); err != nil {
		t.Fatal(err)
	}
	segs, _ = Segments(dir)
	if !reflect.DeepEqual(segs, []uint64{2}) {
		t.Fatalf("after prune: segments %v, want [2]", segs)
	}
}

// saveCheckpoint writes c under dir the way the engine does.
func saveCheckpoint(t *testing.T, dir string, c *Checkpoint) {
	t.Helper()
	img, err := c.Image()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveRaw(dir, c.Seq, img); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := &Checkpoint{
		Seq: 3, Shards: 2, NodesPerShard: 4, Seed: 11, Dims: 2,
		ShardStates: []ShardState{
			{Shard: 0, NextID: 6, FirstSeg: 4, Nodes: []NodeState{{Node: 0, Avail: []float64{1, 2}}, {Node: 5, Avail: []float64{0, 0}}}},
			{Shard: 1, NextID: 4, FirstSeg: 4, Nodes: []NodeState{{Node: 2, Avail: []float64{3, 4}}}},
		},
		Fwd: ForwardState{
			Next:    map[uint64]uint64{7: 1<<32 | 5},
			Ext:     map[uint64]uint64{1<<32 | 5: 7},
			Aliases: map[uint64][]uint64{7: {9}},
		},
		NextShard: 5, NextQuery: 2,
		Counters: map[string]uint64{"joins": 6, "leaves": 1},
	}
	saveCheckpoint(t, dir, c)
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("loaded %+v, want %+v", got, c)
	}
}

func TestLoadLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c1 := &Checkpoint{Seq: 1, Shards: 1, NodesPerShard: 2, Dims: 2}
	c2 := &Checkpoint{Seq: 2, Shards: 1, NodesPerShard: 2, Dims: 2}
	saveCheckpoint(t, dir, c1)
	saveCheckpoint(t, dir, c2)
	// Corrupt the newest; LoadLatest must fall back to seq 1.
	path := CheckpointPath(dir, 2)
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)
	got, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Seq != 1 {
		t.Fatalf("got %+v, want checkpoint seq 1", got)
	}
	if err := RemoveCheckpointsBelow(dir, 3); err != nil {
		t.Fatal(err)
	}
	if got, _ := LoadLatest(dir); got != nil {
		t.Fatalf("after prune: got %+v, want none", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint-1.ckpt")); !os.IsNotExist(err) {
		t.Fatal("checkpoint 1 not removed")
	}
}

func TestLoadLatestEmpty(t *testing.T) {
	got, err := LoadLatest(t.TempDir())
	if err != nil || got != nil {
		t.Fatalf("empty dir: got %+v, %v", got, err)
	}
	segs, err := Segments(filepath.Join(t.TempDir(), "missing"))
	if err != nil || segs != nil {
		t.Fatalf("missing dir: got %v, %v", segs, err)
	}
}
