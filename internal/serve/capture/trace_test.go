package capture

import (
	"bytes"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

func testEvents() []Event {
	return []Event{
		{Kind: EvQuery, At: time.Millisecond, Demand: []float64{1, 2, 3}, K: 3,
			NoCache: true, Digest: 0xdeadbeef, NCand: 2},
		{Kind: EvQuery, At: 2 * time.Millisecond, Demand: []float64{0.5, 0, 9.25}, K: 1,
			Consistent: true, Cached: true, Digest: 1, NCand: 0},
		{Kind: EvMutation, At: 3 * time.Millisecond, Shard: 2,
			Rec: wal.Record{Kind: wal.KindUpdate, Node: 7, Avail: vector.Vec{4, 5, 6}, Announce: true}},
		{Kind: EvMutation, At: 4 * time.Millisecond, Shard: 0,
			Rec: wal.Record{Kind: wal.KindJoin, Node: 12, Avail: vector.Vec{1, 1, 1}}},
		{Kind: EvMutation, At: 5 * time.Millisecond, Shard: 1,
			Rec: wal.Record{Kind: wal.KindLeave, Node: 3}},
		{Kind: EvFault, At: 6 * time.Millisecond, Fault: FaultHaltShard, Target: 1},
		{Kind: EvFault, At: 7 * time.Millisecond, Fault: FaultPromote, Target: 0},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	h := Header{Shards: 4, NodesPerShard: 16, Seed: 0xfeed, CMax: []float64{8, 16, 32}}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	in := testEvents()
	for i := range in {
		if err := w.WriteEvent(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Bytes() != int64(buf.Len()) {
		t.Fatalf("Bytes() %d, wrote %d", w.Bytes(), buf.Len())
	}
	gh, out, torn, err := DecodeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn %d on a whole trace", torn)
	}
	if !reflect.DeepEqual(gh, h) {
		t.Fatalf("header mismatch: %+v vs %+v", gh, h)
	}
	if len(out) != len(in) {
		t.Fatalf("%d events out, %d in", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		// The encoder stores nil and empty demand identically; decoded
		// query events always carry a non-nil slice.
		if a.Kind == EvQuery && a.Demand == nil {
			a.Demand = []float64{}
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("event %d: %#v vs %#v", i, a, b)
		}
	}
}

// TestTraceQueryEventBytes pins a consistent query event's bytes to
// the ones written when a consistent query could also scatter (then
// flagged qfScopeOne for its one-shard form), and refuses the
// scatter's event, which lacks the flag: replaying it on one shard
// would not be the query that was recorded.
func TestTraceQueryEventBytes(t *testing.T) {
	const (
		consistent = "0180841e00000000000303000200cefaedfe000000000300000000000000e03f00000000000000000000000000802240"
		legacyAll  = "0180841e00000000000103000200cefaedfe000000000300000000000000e03f00000000000000000000000000802240"
	)
	ev := Event{Kind: EvQuery, At: 2 * time.Millisecond, Demand: []float64{0.5, 0, 9.25}, K: 3,
		Consistent: true, Digest: 0xfeedface, NCand: 2}
	got, err := appendEvent(nil, &ev)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != consistent {
		t.Fatalf("consistent query event\n%x\nwant\n%s", got, consistent)
	}
	if back, err := decodeEvent(got); err != nil || !reflect.DeepEqual(back, ev) {
		t.Fatalf("consistent query event decodes as %+v, %v", back, err)
	}
	old, _ := hex.DecodeString(legacyAll)
	if back, err := decodeEvent(old); err == nil {
		t.Fatalf("a scatter's query event decoded as %+v", back)
	}
}

func TestTraceTornTail(t *testing.T) {
	h := Header{Shards: 1, NodesPerShard: 4, Seed: 1, CMax: []float64{1}}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	in := testEvents()
	// boundary[k] = trace length after k whole events.
	boundary := map[int]int{0: int(w.Bytes())}
	for i := range in {
		if err := w.WriteEvent(&in[i]); err != nil {
			t.Fatal(err)
		}
		boundary[i+1] = int(w.Bytes())
	}
	whole := buf.Len()
	// Every strict prefix decodes to a prefix of the events, never an
	// error — a crash mid-write only costs the torn entry. A cut at an
	// exact frame boundary is simply a shorter whole trace (torn 0).
	for cut := whole - 1; cut > whole-60 && cut >= boundary[0]; cut-- {
		_, evs, torn, err := DecodeTrace(buf.Bytes()[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(evs) >= len(in) {
			t.Fatalf("cut %d: torn trace decoded all %d events", cut, len(evs))
		}
		atBoundary := boundary[len(evs)] == cut
		if atBoundary != (torn == 0) || boundary[len(evs)]+int(torn) != cut {
			t.Fatalf("cut %d: decoded %d events, torn %d (boundary %d)", cut, len(evs), torn, boundary[len(evs)])
		}
	}
	// A corrupted (CRC-broken) frame ends decoding at the same place.
	data := append([]byte(nil), buf.Bytes()...)
	data[whole-3] ^= 0xff
	_, evs, torn, err := DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(in)-1 || torn == 0 {
		t.Fatalf("corrupt tail: %d events, torn %d", len(evs), torn)
	}
}

// TestRecorderDropNotBlock fills a tiny ring faster than its writer
// can drain and requires the overflow to be counted as drops while
// the serving path never blocks.
func TestRecorderDropNotBlock(t *testing.T) {
	h := Header{Shards: 1, NodesPerShard: 4, Seed: 1, CMax: []float64{1, 1, 1}}
	rec, err := NewRecorder(filepath.Join(t.TempDir(), "t.bin"), h, RecorderConfig{Ring: 2})
	if err != nil {
		t.Fatal(err)
	}
	req := serve.QueryRequest{Demand: vector.Vec{1, 1, 1}, K: 1}
	resp := serve.QueryResponse{}
	const n = 10000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			rec.CaptureQuery(req, &resp, nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("capture blocked the serving path")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Records+st.Dropped != n {
		t.Fatalf("records %d + dropped %d != %d offered", st.Records, st.Dropped, n)
	}
	if st.Records == 0 {
		t.Fatal("everything dropped: writer never ran")
	}
	// And the trace holds exactly the accepted records.
	_, evs, _, err := ReadTraceFile(rec.Path())
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(evs)) != st.Records {
		t.Fatalf("trace has %d events, recorder counted %d", len(evs), st.Records)
	}
}

// TestRecorderAfterClose requires post-Close captures to be ignored.
func TestRecorderAfterClose(t *testing.T) {
	h := Header{Shards: 1, NodesPerShard: 4, Seed: 1, CMax: []float64{1}}
	rec, err := NewRecorder(filepath.Join(t.TempDir(), "t.bin"), h, RecorderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rec.CaptureQuery(serve.QueryRequest{Demand: vector.Vec{1}}, &serve.QueryResponse{}, nil)
	rec.CaptureMutations(0, []wal.Record{{Kind: wal.KindLeave, Node: 1}})
	if st := rec.Stats(); st.Records != 0 || st.Dropped != 0 {
		t.Fatalf("post-close captures counted: %+v", st)
	}
}
