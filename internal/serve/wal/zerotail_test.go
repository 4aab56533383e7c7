package wal

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// updateRecord is an update at five dimensions: a 56-byte frame, the
// size of most of a serving log's records.
func updateRecord(node uint32) Record {
	return Record{Kind: KindUpdate, Node: node, Avail: []float64{4, 20, 2, 60, 1024}}
}

// readFile returns path's bytes, failing the test on error.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// alignedEnd is the file length Sync leaves a segment whose records end
// at file offset end: the next zeroChunk boundary past it.
func alignedEnd(end int64) int64 { return (end/zeroChunk + 1) * zeroChunk }

// TestZeroTail covers the crash images a live segment's zero tail can
// leave, and the trim that keeps closed segments free of it.
func TestZeroTail(t *testing.T) {
	t.Run("records then zeros read back and resume", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Create(dir, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		recs := sampleRecords()
		if err := l.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		valid := int64(segHeaderLen) + l.Size()
		// The live file is a crash image: copy it where a restart
		// would find it.
		img := readFile(t, SegmentPath(dir, 1))
		if int64(len(img)) != alignedEnd(valid) {
			t.Fatalf("live segment is %d bytes; want %d, zero-filled to the boundary past %d",
				len(img), alignedEnd(valid), valid)
		}
		crashed := t.TempDir()
		if err := os.WriteFile(SegmentPath(crashed, 1), img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, validSize, dropped, err := ReadSegmentInfo(SegmentPath(crashed, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, recs) || validSize != valid || dropped != int64(len(img))-valid {
			t.Fatalf("read %d records, valid %d, dropped %d; want %d, %d, %d",
				len(got), validSize, dropped, len(recs), valid, int64(len(img))-valid)
		}

		r, err := OpenAppend(crashed, 1, validSize, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		more := updateRecord(5)
		for _, lg := range []*Log{l, r} {
			if err := lg.Append(more); err != nil {
				t.Fatal(err)
			}
			if err := lg.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		want, resumed := readFile(t, SegmentPath(dir, 1)), readFile(t, SegmentPath(crashed, 1))
		if !bytes.Equal(resumed, want) {
			t.Fatalf("resumed segment is %d bytes, the uncrashed one %d; want them identical",
				len(resumed), len(want))
		}
		_, got, _, _, err = ReadSegmentInfo(SegmentPath(crashed, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, append(recs, more)) {
			t.Fatalf("resumed segment reads %d records; want %d", len(got), len(recs)+1)
		}
	})

	t.Run("torn record then zeros stop before it", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Create(dir, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		recs := sampleRecords()
		if err := l.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		img := readFile(t, SegmentPath(dir, 1))
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// A crash tore record 3: its first half reached the disk, the
		// rest of the zero-filled chunk still reads as zeros.
		intact := int64(segHeaderLen) + int64(len(AppendRecords(nil, recs[:3])))
		torn := intact + int64(recordSize(&recs[3])/2)
		clear(img[torn:])
		path := SegmentPath(dir, 1)
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, got, validSize, dropped, err := ReadSegmentInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, recs[:3]) || validSize != intact || dropped != int64(len(img))-intact {
			t.Fatalf("read %d records, valid %d, dropped %d; want 3, %d, %d",
				len(got), validSize, dropped, intact, int64(len(img))-intact)
		}
	})

	t.Run("closed segments are trimmed", func(t *testing.T) {
		dir := t.TempDir()
		l, err := Create(dir, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		var recs []Record
		for i := 0; int64(segHeaderLen)+l.Size() < zeroChunk+100; i++ {
			recs = append(recs, updateRecord(uint32(i)))
			if err := l.Append(recs[i]); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Rotate(2, 3); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(recs[:2]...); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// A closed segment holds its header and records and nothing
		// else: the bytes a log that never zero-filled would write.
		for seg, n := range map[uint64]int{1: len(recs), 2: 2} {
			want := AppendRecords(encodeSegHeader(0, 3), recs[:n])
			if got := readFile(t, SegmentPath(dir, seg)); !bytes.Equal(got, want) {
				t.Fatalf("segment %d closed at %d bytes; want its %d bytes of header and records",
					seg, len(got), len(want))
			}
		}
	})

	t.Run("sync points do not change the length", func(t *testing.T) {
		// Two logs fed the same records, one synced after every record
		// and one after every seventh: after a last sync each, the live
		// files are identical, as a follower's mirror must be.
		var paths []string
		for _, every := range []int{1, 7} {
			dir := t.TempDir()
			l, err := Create(dir, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			for i := 0; i < 3000; i++ {
				if err := l.Append(updateRecord(uint32(i))); err != nil {
					t.Fatal(err)
				}
				if i%every == 0 {
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(SegmentPath(dir, 1)); err != nil {
				t.Fatal(err)
			} else if end := int64(segHeaderLen) + l.Size(); fi.Size() != alignedEnd(end) {
				t.Fatalf("syncing every %d records: %d bytes; want %d, the boundary past %d",
					every, fi.Size(), alignedEnd(end), end)
			}
			paths = append(paths, SegmentPath(dir, 1))
		}
		if !bytes.Equal(readFile(t, paths[0]), readFile(t, paths[1])) {
			t.Fatal("live segments of the same records differ with their sync points")
		}
	})
}
