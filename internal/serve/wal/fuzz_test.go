package wal

import (
	"bytes"
	"testing"
)

// FuzzRecordBlob feeds arbitrary bytes through the record decoders the
// log, the replication stream and capture traces share: IterRecords
// must stop at the end of the valid prefix without panicking, that
// prefix must re-encode to its exact bytes, and DecodeRecords must
// accept exactly the blobs that are all prefix.
//
//	go test -run '^$' -fuzz FuzzRecordBlob -fuzztime=20s ./internal/serve/wal
func FuzzRecordBlob(f *testing.F) {
	recs := sampleRecords()
	blob := AppendRecords(nil, recs)
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	for i := range recs {
		f.Add(AppendRecords(nil, recs[i:i+1]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Record
		it := IterRecords(data, 0)
		for it.Next() {
			got = append(got, it.Record())
		}
		re := AppendRecords(nil, got)
		if prefix := data[:it.Offset()]; !bytes.Equal(re, prefix) {
			t.Fatalf("valid prefix\n%x\nre-encodes as\n%x", prefix, re)
		}
		all, err := DecodeRecords(data)
		if (err == nil) != (it.Dropped() == 0) || (err == nil && len(all) != len(got)) {
			t.Fatalf("DecodeRecords: %d records, %v; the prefix holds %d of %d bytes and %d records",
				len(all), err, it.Offset(), len(data), len(got))
		}
	})
}
