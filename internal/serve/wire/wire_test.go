package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"net"
	"reflect"
	"testing"
	"time"

	"pidcan"
	"pidcan/internal/memtest"
	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/serve/wire"
)

// newTestEngine builds a small live engine with every node's
// availability seeded, the bench harness's setup in miniature.
func newTestEngine(t *testing.T, cfg serve.Config) *serve.Engine {
	t.Helper()
	eng, err := pidcan.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	cmax := eng.Config().CMax
	rng := rand.New(rand.NewPCG(7, 0x51ee7))
	for _, id := range eng.Nodes() {
		avail := make(pidcan.Vec, cmax.Dim())
		for k := range avail {
			avail[k] = cmax[k] * (0.2 + 0.8*rng.Float64())
		}
		if err := eng.Update(id, avail, false); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// startWire serves eng on a loopback TCP listener and returns the
// server and its address.
func startWire(t *testing.T, eng *serve.Engine) (*wire.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(func() serve.Service { return eng }, wire.ServerConfig{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dialWire(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFilterHeader: the stateless packet filter rejects every class
// of malformed header without reading past the fixed 24 bytes.
func TestFilterHeader(t *testing.T) {
	valid := wire.AppendQuery(nil, 1, 0, &wire.Query{Demand: []float64{1, 2}, K: 1})
	if err := wire.FilterHeader(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	mutate := func(off int, b byte) []byte {
		h := bytes.Clone(valid[:wire.HeaderSize])
		h[off] = b
		return h
	}
	cases := []struct {
		name string
		hdr  []byte
	}{
		{"short", valid[:wire.HeaderSize-1]},
		{"bad magic", mutate(0, 0x00)},
		{"bad version", mutate(1, 99)},
		{"op zero", mutate(2, 0)},
		{"op out of range", mutate(2, 13)},
		{"retired op 6 (fed-query)", mutate(2, 6)},
		{"bad flag bits", mutate(3, 0x80)},
		{"oversize payload", mutate(19, 0xFF)}, // plen high byte -> > MaxPayload
	}
	for _, tc := range cases {
		if err := wire.FilterHeader(tc.hdr); err == nil {
			t.Errorf("%s: filter accepted a malformed header", tc.name)
		}
	}
}

// TestCodecRoundTrips: every payload codec survives encode -> frame
// verify -> decode intact.
func TestCodecRoundTrips(t *testing.T) {
	checkFrame := func(t *testing.T, frame []byte, op byte, reqID uint32, epoch uint64) wire.Header {
		t.Helper()
		h, err := wire.ParseHeader(frame[:wire.HeaderSize])
		if err != nil {
			t.Fatal(err)
		}
		if h.Op != op || h.ReqID != reqID || h.Epoch != epoch {
			t.Fatalf("header %+v, want op=%d req=%d epoch=%d", h, op, reqID, epoch)
		}
		payload := frame[wire.HeaderSize:]
		if int(h.PLen) != len(payload) {
			t.Fatalf("plen %d, payload %d", h.PLen, len(payload))
		}
		if !wire.VerifyFrame(frame[:wire.HeaderSize], payload) {
			t.Fatal("frame CRC mismatch")
		}
		return h
	}
	// cutAnywhere requires decode to refuse every proper prefix of a
	// valid payload, and the payload with a byte of trailing junk.
	cutAnywhere := func(t *testing.T, payload []byte, decode func([]byte) error) {
		t.Helper()
		for n := 0; n < len(payload); n++ {
			if decode(payload[:n]) == nil {
				t.Fatalf("payload truncated to %d of %d bytes decoded", n, len(payload))
			}
		}
		if decode(append(bytes.Clone(payload), 0)) == nil {
			t.Fatal("payload with a trailing byte decoded")
		}
	}

	t.Run("query", func(t *testing.T) {
		q := wire.Query{Demand: []float64{1.5, 0, 3.25}, K: 7, Consistent: true, NoCache: true}
		frame := wire.AppendQuery(nil, 42, 9, &q)
		checkFrame(t, frame, wire.OpQuery, 42, 9)
		var got wire.Query
		if err := wire.DecodeQuery(frame[wire.HeaderSize:], &got); err != nil {
			t.Fatal(err)
		}
		if got.K != 7 || !got.Consistent || !got.NoCache ||
			!vecEq(got.Demand, q.Demand) {
			t.Fatalf("query round trip: %+v", got)
		}
	})

	t.Run("query response", func(t *testing.T) {
		resp := serve.QueryResponse{
			Cached:        true,
			ShardsQueried: 3,
			Hops:          17,
			Candidates: []serve.Candidate{
				{Node: serve.GlobalID(1<<32 | 5), Surplus: 2.5, Avail: []float64{4, 5}},
				{Node: 7, Surplus: 0.25, Avail: []float64{1, 2}},
			},
		}
		frame := wire.AppendQueryResponse(nil, 3, 11, &resp)
		checkFrame(t, frame, wire.OpQuery, 3, 11)
		var res wire.QueryResult
		if err := wire.DecodeQueryResponse(frame[wire.HeaderSize:], &res); err != nil {
			t.Fatal(err)
		}
		if !res.Cached || res.ShardsQueried != 3 || res.Hops != 17 ||
			len(res.Candidates) != 2 {
			t.Fatalf("response round trip: %+v", res)
		}
		for i, c := range res.Candidates {
			want := resp.Candidates[i]
			if c.Node != uint64(want.Node) || c.Surplus != want.Surplus || !vecEq(c.Avail, want.Avail) {
				t.Fatalf("candidate %d: %+v, want %+v", i, c, want)
			}
		}
	})

	t.Run("update", func(t *testing.T) {
		frame := wire.AppendUpdate(nil, 8, 2, 1<<40|3, []float64{0.5, 9}, true)
		checkFrame(t, frame, wire.OpUpdate, 8, 2)
		var u wire.Update
		if err := wire.DecodeUpdate(frame[wire.HeaderSize:], &u); err != nil {
			t.Fatal(err)
		}
		if u.Node != 1<<40|3 || !u.Announce || !vecEq(u.Avail, []float64{0.5, 9}) {
			t.Fatalf("update round trip: %+v", u)
		}
	})

	t.Run("join", func(t *testing.T) {
		frame := wire.AppendJoin(nil, 9, 0, -1, nil)
		checkFrame(t, frame, wire.OpJoin, 9, 0)
		var j wire.Join
		if err := wire.DecodeJoin(frame[wire.HeaderSize:], &j); err != nil {
			t.Fatal(err)
		}
		if j.Shard != -1 || j.Avail != nil {
			t.Fatalf("join round trip: %+v", j)
		}
		frame = wire.AppendJoin(nil, 10, 0, 2, []float64{1, 2})
		var j2 wire.Join
		if err := wire.DecodeJoin(frame[wire.HeaderSize:], &j2); err != nil {
			t.Fatal(err)
		}
		if j2.Shard != 2 || !vecEq(j2.Avail, []float64{1, 2}) {
			t.Fatalf("join round trip: %+v", j2)
		}
	})

	t.Run("leave", func(t *testing.T) {
		frame := wire.AppendLeave(nil, 11, 1, 99)
		checkFrame(t, frame, wire.OpLeave, 11, 1)
		node, err := wire.DecodeLeave(frame[wire.HeaderSize:])
		if err != nil || node != 99 {
			t.Fatalf("leave round trip: %d %v", node, err)
		}
	})

	t.Run("fed take", func(t *testing.T) {
		frame := wire.AppendFedTake(nil, 13, 2, 1<<40|9)
		checkFrame(t, frame, wire.OpFedTake, 13, 2)
		node, err := wire.DecodeFedTake(frame[wire.HeaderSize:])
		if err != nil || node != 1<<40|9 {
			t.Fatalf("fed-take round trip: %d %v", node, err)
		}
		cutAnywhere(t, frame[wire.HeaderSize:], func(p []byte) error {
			_, err := wire.DecodeFedTake(p)
			return err
		})
	})

	t.Run("fed take response", func(t *testing.T) {
		for _, tc := range []struct {
			avail    []float64
			degraded bool
		}{
			{[]float64{3.5, 0, 7}, false},
			{[]float64{1, 2}, true},
			{nil, false}, // a node that never published an availability
		} {
			frame := wire.AppendFedTakeResponse(nil, 14, 3, tc.avail, tc.degraded)
			h := checkFrame(t, frame, wire.OpFedTake, 14, 3)
			if h.Flags != wire.FlagResponse {
				t.Fatalf("fed-take response flags %x", h.Flags)
			}
			avail, degraded, err := wire.DecodeFedTakeResponse(frame[wire.HeaderSize:], nil)
			if err != nil || degraded != tc.degraded || !vecEq(avail, tc.avail) || (tc.avail == nil) != (avail == nil) {
				t.Fatalf("fed-take response round trip: %v %v %v, want %v %v", avail, degraded, err, tc.avail, tc.degraded)
			}
			cutAnywhere(t, frame[wire.HeaderSize:], func(p []byte) error {
				_, _, err := wire.DecodeFedTakeResponse(p, nil)
				return err
			})
		}
	})

	t.Run("fed summary", func(t *testing.T) {
		req := wire.AppendFedSummaryRequest(nil, 15, 0)
		if h := checkFrame(t, req, wire.OpFedSummary, 15, 0); h.PLen != 0 || h.Flags != 0 {
			t.Fatalf("summary request header %+v, want an empty request payload", h)
		}
		for _, sum := range []*wire.Summary{
			nil, // a member with no engine mounted
			{Seq: 1<<40 | 7, Pop: 12345, Max: []float64{25.6, 80, 0}},
			{Seq: 3, Pop: 0, Max: nil}, // zero-length Max
		} {
			frame := wire.AppendFedSummaryResponse(nil, 16, 5, sum)
			checkFrame(t, frame, wire.OpFedSummary, 16, 5)
			got := wire.Summary{Max: []float64{9, 9, 9, 9}} // decode reuses and must truncate
			ok, err := wire.DecodeFedSummaryResponse(frame[wire.HeaderSize:], &got)
			if err != nil || ok != (sum != nil) {
				t.Fatalf("summary response round trip: ok=%v err=%v, sent %+v", ok, err, sum)
			}
			if sum != nil && (got.Seq != sum.Seq || got.Pop != sum.Pop || !vecEq(got.Max, sum.Max)) {
				t.Fatalf("summary response round trip: %+v, want %+v", got, *sum)
			}
			cutAnywhere(t, frame[wire.HeaderSize:], func(p []byte) error {
				_, err := wire.DecodeFedSummaryResponse(p, new(wire.Summary))
				return err
			})
		}
	})

	t.Run("repl subscribe", func(t *testing.T) {
		for _, sub := range []wire.ReplSubscribe{
			{Shards: 3}, // a follower with no state: bootstrap
			{Shards: 2, Pos: []serve.ReplPos{{Seg: 4, Pos: 17}, {Seg: 1, Pos: 0}}},
		} {
			frame := wire.AppendReplSubscribe(nil, 21, 6, &sub)
			checkFrame(t, frame, wire.OpReplSubscribe, 21, 6)
			got := wire.ReplSubscribe{Pos: make([]serve.ReplPos, 5)} // decode reuses and must truncate
			if err := wire.DecodeReplSubscribe(frame[wire.HeaderSize:], &got); err != nil ||
				got.Shards != sub.Shards || len(got.Pos) != len(sub.Pos) {
				t.Fatalf("subscribe round trip: %+v %v, want %+v", got, err, sub)
			}
			for i := range sub.Pos {
				if got.Pos[i] != sub.Pos[i] {
					t.Fatalf("subscribe position %d: %+v, want %+v", i, got.Pos[i], sub.Pos[i])
				}
			}
			cutAnywhere(t, frame[wire.HeaderSize:], func(p []byte) error {
				return wire.DecodeReplSubscribe(p, new(wire.ReplSubscribe))
			})
		}
	})

	t.Run("repl welcome", func(t *testing.T) {
		w := wire.ReplWelcome{Resume: true, Shards: 4, Seed: 1<<40 | 3, NodesPerShard: 2500, Dims: 5}
		frame := wire.AppendReplWelcome(nil, 22, 7, &w)
		if h := checkFrame(t, frame, wire.OpReplSubscribe, 22, 7); h.Flags != wire.FlagResponse {
			t.Fatalf("welcome flags %x", h.Flags)
		}
		var got wire.ReplWelcome
		if err := wire.DecodeReplWelcome(frame[wire.HeaderSize:], &got); err != nil || got != w {
			t.Fatalf("welcome round trip: %+v %v, want %+v", got, err, w)
		}
		cutAnywhere(t, frame[wire.HeaderSize:], func(p []byte) error {
			return wire.DecodeReplWelcome(p, new(wire.ReplWelcome))
		})
	})

	t.Run("repl records", func(t *testing.T) {
		r := wire.ReplRecords{Shard: 2, Seg: 3, Pos: 40, Recs: []wal.Record{
			{Kind: wal.KindUpdate, Node: 7, Announce: true, Avail: []float64{1, 2.5}},
			{Kind: wal.KindJoin, Node: 9, Repoint: true, Ext: 1<<32 | 4, Old: 5},
			{Kind: wal.KindLeave, Node: 7},
		}}
		frame := wire.AppendReplRecords(nil, 23, 8, &r)
		checkFrame(t, frame, wire.OpReplRecords, 23, 8)
		var got wire.ReplRecords
		if err := wire.DecodeReplRecords(frame[wire.HeaderSize:], &got); err != nil || !reflect.DeepEqual(got, r) {
			t.Fatalf("records round trip: %+v %v, want %+v", got, err, r)
		}
		cutAnywhere(t, frame[wire.HeaderSize:], func(p []byte) error {
			return wire.DecodeReplRecords(p, new(wire.ReplRecords))
		})
		// A long batch travels as several frames, each positioned at its
		// own first record.
		long := wire.ReplRecords{Shard: 1, Seg: 2, Pos: 10}
		for i := 0; i < 700; i++ {
			long.Recs = append(long.Recs, wal.Record{Kind: wal.KindUpdate, Node: uint32(i), Avail: []float64{float64(i)}})
		}
		var parts []wire.ReplRecords
		for data := wire.AppendReplRecords(nil, 24, 8, &long); len(data) > 0; {
			h := checkFrame(t, data[:wire.HeaderSize+int(binary.LittleEndian.Uint32(data[16:]))], wire.OpReplRecords, 24, 8)
			var part wire.ReplRecords
			if err := wire.DecodeReplRecords(data[wire.HeaderSize:wire.HeaderSize+h.PLen], &part); err != nil {
				t.Fatal(err)
			}
			parts, data = append(parts, part), data[wire.HeaderSize+h.PLen:]
		}
		if len(parts) != 2 || parts[1].Pos != long.Pos+uint64(len(parts[0].Recs)) ||
			!reflect.DeepEqual(append(parts[0].Recs, parts[1].Recs...), long.Recs) {
			t.Fatalf("700 records split into %d frames: %+v", len(parts), parts)
		}
	})

	t.Run("repl checkpoint", func(t *testing.T) {
		image := make([]byte, wire.MaxPayload+wire.MaxPayload/2)
		for i := range image {
			image[i] = byte(i * 7)
		}
		var got []byte
		frames := 0
		for data := wire.AppendReplCheckpoint(nil, 25, 9, 12, image); len(data) > 0; frames++ {
			h := checkFrame(t, data[:wire.HeaderSize+int(binary.LittleEndian.Uint32(data[16:]))], wire.OpReplCheckpoint, 25, 9)
			payload := data[wire.HeaderSize : wire.HeaderSize+h.PLen]
			var c wire.ReplCheckpoint
			if err := wire.DecodeReplCheckpoint(payload, &c); err != nil || c.Seq != 12 || c.Size != uint64(len(image)) {
				t.Fatalf("chunk %d: %+v %v", frames, c, err)
			}
			got, data = append(got, c.Data...), data[wire.HeaderSize+h.PLen:]
		}
		if frames != 2 || !bytes.Equal(got, image) {
			t.Fatalf("a %d-byte image came back as %d bytes in %d chunks", len(image), len(got), frames)
		}
		small := wire.AppendReplCheckpoint(nil, 26, 9, 13, []byte("image"))
		// Any shorter chunk is valid (it carries less of the image), so
		// only cuts into the sequence and size fields must fail.
		for n := 0; n < 16; n++ {
			if wire.DecodeReplCheckpoint(small[wire.HeaderSize:wire.HeaderSize+n], new(wire.ReplCheckpoint)) == nil {
				t.Fatalf("chunk cut to %d bytes decoded", n)
			}
		}
		// A chunk may not carry more than the image it belongs to.
		if err := wire.DecodeReplCheckpoint(append(bytes.Clone(small[wire.HeaderSize:]), 0), new(wire.ReplCheckpoint)); err == nil {
			t.Fatal("a chunk longer than its image decoded")
		}
	})

	t.Run("repl heartbeat", func(t *testing.T) {
		hb := wire.ReplHeartbeat{Sent: 1_700_000_000_123_456_789, Pos: []serve.ReplPos{{Seg: 2, Pos: 9}}}
		frame := wire.AppendReplHeartbeat(nil, 27, 10, &hb)
		checkFrame(t, frame, wire.OpReplHeartbeat, 27, 10)
		var got wire.ReplHeartbeat
		if err := wire.DecodeReplHeartbeat(frame[wire.HeaderSize:], &got); err != nil || got.Sent != hb.Sent ||
			len(got.Pos) != 1 || got.Pos[0] != hb.Pos[0] {
			t.Fatalf("heartbeat round trip: %+v %v, want %+v", got, err, hb)
		}
		cutAnywhere(t, frame[wire.HeaderSize:], func(p []byte) error {
			return wire.DecodeReplHeartbeat(p, new(wire.ReplHeartbeat))
		})
	})

	t.Run("error", func(t *testing.T) {
		frame := wire.AppendError(nil, wire.OpUpdate, 12, 4, serve.CodeReadOnly,
			1500*time.Millisecond, "10.0.0.1:7000", "read-only follower")
		h := checkFrame(t, frame, wire.OpUpdate, 12, 4)
		if h.Flags != wire.FlagResponse|wire.FlagError {
			t.Fatalf("error flags %x", h.Flags)
		}
		var e wire.Error
		if err := wire.DecodeError(frame[wire.HeaderSize:], &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != serve.CodeReadOnly || e.RetryAfter != 1500*time.Millisecond ||
			e.Primary != "10.0.0.1:7000" || e.Msg != "read-only follower" {
			t.Fatalf("error round trip: %+v", e)
		}
	})
}

func vecEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQueryCodecZeroAlloc pins the zero-allocation contract of the
// hot query path: steady-state encode and decode of requests and
// responses allocate nothing.
func TestQueryCodecZeroAlloc(t *testing.T) {
	q := wire.Query{Demand: []float64{1, 2, 3}, K: 3}
	resp := serve.QueryResponse{
		ShardsQueried: 1,
		Candidates: []serve.Candidate{
			{Node: 1, Surplus: 1, Avail: []float64{1, 2, 3}},
			{Node: 2, Surplus: 2, Avail: []float64{4, 5, 6}},
		},
	}
	buf := make([]byte, 0, 4096)
	var gotQ wire.Query
	var gotR wire.QueryResult
	// Warm the reusable decode targets so backing arrays settle.
	buf = wire.AppendQuery(buf[:0], 1, 0, &q)
	wire.DecodeQuery(buf[wire.HeaderSize:], &gotQ)
	buf = wire.AppendQueryResponse(buf[:0], 1, 0, &resp)
	wire.DecodeQueryResponse(buf[wire.HeaderSize:], &gotR)

	allocs := testing.AllocsPerRun(200, func() {
		buf = wire.AppendQuery(buf[:0], 2, 0, &q)
		if err := wire.DecodeQuery(buf[wire.HeaderSize:], &gotQ); err != nil {
			t.Fatal(err)
		}
		buf = wire.AppendQueryResponse(buf[:0], 2, 0, &resp)
		if err := wire.DecodeQueryResponse(buf[wire.HeaderSize:], &gotR); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("query encode/decode path allocates %.1f times per op, want 0", allocs)
	}
}

// TestServerCachedQueryAllocations: the server side of one cached
// OpQuery — header and frame check, decode, the engine's answer from
// the cache into the connection's candidate buffer, the answer's
// external ids and the encoded response — allocates nothing.
func TestServerCachedQueryAllocations(t *testing.T) {
	testServerQueryAllocations(t, false)
}

// TestServerUncachedQueryAllocations: so does the server side of a
// NoCache OpQuery, whose merged scan ranks on the stack and answers
// into the same buffer.
func TestServerUncachedQueryAllocations(t *testing.T) {
	testServerQueryAllocations(t, true)
}

func testServerQueryAllocations(t *testing.T, noCache bool) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	eng := newTestEngine(t, serve.Config{Shards: 4, NodesPerShard: 64, Seed: 3, FlushInterval: time.Hour})
	srv := wire.NewServer(func() serve.Service { return eng }, wire.ServerConfig{})
	handle := srv.HandleFrame()
	demand := make([]float64, eng.Config().CMax.Dim())
	for d, c := range eng.Config().CMax {
		demand[d] = 0.3 * c
	}
	frame := wire.AppendQuery(nil, 1, 0, &wire.Query{Demand: demand, K: 3, NoCache: noCache})
	out := handle(nil, frame) // the fill, and the buffer's growth
	var res wire.QueryResult
	if out = handle(out[:0], frame); wire.DecodeQueryResponse(out[wire.HeaderSize:], &res) != nil || res.Cached == noCache || len(res.Candidates) != 3 {
		t.Fatalf("the second query: cached %v, %d candidates; want cached %v with 3", res.Cached, len(res.Candidates), !noCache)
	}
	// Every call is the same query, so the fewest over five windows is
	// its cost.
	bytes, allocs := memtest.PerCall(5, 300, func() { out = handle(out[:0], frame) })
	t.Logf("the server side of an OpQuery (NoCache %v) allocates %.0f B in %.2f allocations", noCache, bytes, allocs)
	if bytes > 0 || allocs > 0 {
		t.Fatalf("the server side of an OpQuery (NoCache %v) allocates %.0f B in %.2f allocations; budget 0", noCache, bytes, allocs)
	}
}

// TestWireE2E drives every op over a live TCP connection against a
// real engine, then checks the pipelined path returns responses in
// request order.
func TestWireE2E(t *testing.T) {
	eng := newTestEngine(t, serve.Config{Shards: 2, NodesPerShard: 8, Seed: 3})
	srv, addr := startWire(t, eng)
	eng.SetWireStats(srv.Stats)
	c := dialWire(t, addr)

	dim := eng.Config().CMax.Dim()
	demand := make([]float64, dim) // zero demand: everything qualifies

	// Query.
	var res wire.QueryResult
	if err := c.Query(&wire.Query{Demand: demand, K: 3}, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) == 0 || len(res.Candidates) > 3 {
		t.Fatalf("query returned %d candidates, want 1..3", len(res.Candidates))
	}
	for _, cand := range res.Candidates {
		if len(cand.Avail) != dim {
			t.Fatalf("candidate avail dim %d, want %d", len(cand.Avail), dim)
		}
	}

	// Join on a specific shard, update it, then leave.
	avail := make([]float64, dim)
	for k := range avail {
		avail[k] = 1
	}
	id, err := c.Join(1, avail)
	if err != nil {
		t.Fatal(err)
	}
	if id>>32 != 1 {
		t.Fatalf("join on shard 1 assigned id %#x", id)
	}
	if err := c.Update(id, avail, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(id); err != nil {
		t.Fatal(err)
	}
	// Round-robin join (shard < 0) also works.
	id2, err := c.Join(-1, avail)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Leave(id2); err != nil {
		t.Fatal(err)
	}

	// Bad requests come back as typed errors, connection stays up.
	err = c.Update(1<<40, avail, false) // no such shard
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != serve.CodeNoShard {
		t.Fatalf("update on missing shard: %v, want CodeNoShard", err)
	}
	err = c.Query(&wire.Query{Demand: nil, K: 1}, &res)
	if !errors.As(err, &we) || we.Code != serve.CodeBadRequest {
		t.Fatalf("nil-demand query: %v, want CodeBadRequest", err)
	}

	// Pipeline: one flush, many responses, strictly in request order.
	const depth = 100
	first := c.EnqueueQuery(&wire.Query{Demand: demand, K: 1})
	for i := 1; i < depth; i++ {
		c.EnqueueQuery(&wire.Query{Demand: demand, K: 1})
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < depth; i++ {
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if r.ReqID != first+uint32(i) {
			t.Fatalf("response %d has reqID %d, want %d (order violated)", i, r.ReqID, first+uint32(i))
		}
		if r.Errored {
			t.Fatalf("pipelined query %d failed: %v", i, r.Err)
		}
	}

	// Stats round trip: the engine's JSON includes the wire gauges the
	// server feeds it through SetWireStats.
	var st serve.Stats
	if _, err := c.Stats(&st); err != nil {
		t.Fatal(err)
	}
	if st.WireConns < 1 || st.WireRequests == 0 {
		t.Fatalf("stats wire gauges: conns=%d requests=%d", st.WireConns, st.WireRequests)
	}
}

// TestWireFedSummary: op 8 is the availability-summary exchange and
// nothing else. A member answers with an upper bound over its records,
// and a listener with no engine mounted (a follower still
// bootstrapping) answers "no summary" rather than an error, so a
// router keeps its address and simply does not prune its legs.
func TestWireFedSummary(t *testing.T) {
	exchange := func(t *testing.T, svc func() serve.Service) *wire.Response {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(svc, wire.ServerConfig{})
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		c := dialWire(t, ln.Addr().String())
		id := c.EnqueueFedSummary()
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := c.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if r.Errored || r.Op != wire.OpFedSummary || r.ReqID != id {
			t.Fatalf("summary exchange answered %+v", r)
		}
		return r
	}

	eng := newTestEngine(t, serve.Config{Shards: 2, NodesPerShard: 4, Seed: 5})
	r := exchange(t, func() serve.Service { return eng })
	if !r.SumOK || int(r.Summary.Pop) != len(eng.Nodes()) || len(r.Summary.Max) != eng.Config().CMax.Dim() {
		t.Fatalf("member summary ok=%v %+v, want %d records over %d dims",
			r.SumOK, r.Summary, len(eng.Nodes()), eng.Config().CMax.Dim())
	}
	if r.Epoch != eng.Epoch() {
		t.Fatalf("summary response carries epoch %d, engine is at %d", r.Epoch, eng.Epoch())
	}
	all, err := eng.Query(serve.QueryRequest{Demand: make([]float64, len(r.Summary.Max)), K: 64, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range all.Candidates {
		for k, v := range cand.Avail {
			if v > r.Summary.Max[k] {
				t.Fatalf("node %v holds %v in dim %d, above the summary's maximum %v", cand.Node, v, k, r.Summary.Max[k])
			}
		}
	}

	if r := exchange(t, func() serve.Service { return nil }); r.SumOK {
		t.Fatalf("a listener without an engine sent a summary: %+v", r.Summary)
	}
}

// TestWireReadOnlyFollower: a write on a follower is refused with
// CodeReadOnly carrying the primary's address and a retry hint — the
// wire mirror of the HTTP 503 + Retry-After surface. Reads serve.
func TestWireReadOnlyFollower(t *testing.T) {
	cfg := serve.Config{
		Shards: 1, NodesPerShard: 4, Seed: 5,
		DataDir: t.TempDir(), Follower: true, PrimaryAddr: "10.0.0.9:7000",
	}
	eng, err := pidcan.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	_, addr := startWire(t, eng)
	c := dialWire(t, addr)

	dim := eng.Config().CMax.Dim()
	err = c.Update(0, make([]float64, dim), false)
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("follower update: %v, want *wire.Error", err)
	}
	if we.Code != wire.CodeReadOnly {
		t.Fatalf("follower update code %d, want CodeReadOnly", we.Code)
	}
	if we.Primary != cfg.PrimaryAddr {
		t.Fatalf("follower rejection names primary %q, want %q", we.Primary, cfg.PrimaryAddr)
	}
	if we.RetryAfter <= 0 {
		t.Fatalf("follower rejection retry-after %v, want > 0", we.RetryAfter)
	}

	// Reads still serve (zero candidates is fine: no availability yet).
	var res wire.QueryResult
	if err := c.Query(&wire.Query{Demand: make([]float64, dim), K: 1}, &res); err != nil {
		t.Fatalf("follower query: %v", err)
	}
}

// TestWireEpochFence covers both fence directions: a frame from a
// NEWER epoch seals the deposed primary on contact, a frame from an
// OLDER (stale, nonzero) epoch is refused without touching the
// engine.
func TestWireEpochFence(t *testing.T) {
	t.Run("newer epoch seals", func(t *testing.T) {
		eng := newTestEngine(t, serve.Config{Shards: 1, NodesPerShard: 4, Seed: 7})
		_, addr := startWire(t, eng)
		c := dialWire(t, addr)
		dim := eng.Config().CMax.Dim()
		avail := make([]float64, dim)

		// Matching epoch: write applies.
		c.WriteEpoch = eng.Epoch()
		if err := c.Update(0, avail, false); err != nil {
			t.Fatalf("same-epoch update: %v", err)
		}

		// A frame stamped from the future proves a promotion happened
		// elsewhere: the engine is fenced on contact.
		c.WriteEpoch = eng.Epoch() + 4
		err := c.Update(0, avail, false)
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != serve.CodeFenced {
			t.Fatalf("future-epoch update: %v, want CodeFenced", err)
		}
		if eng.Role() != "fenced" {
			t.Fatalf("engine role %q after future-epoch frame, want fenced", eng.Role())
		}
		// Even don't-care writes now bounce off the sealed engine.
		c.WriteEpoch = 0
		err = c.Update(0, avail, false)
		if !errors.As(err, &we) || we.Code != serve.CodeFenced {
			t.Fatalf("update on fenced engine: %v, want CodeFenced", err)
		}
		// Reads still serve on a fenced engine.
		var res wire.QueryResult
		if err := c.Query(&wire.Query{Demand: make([]float64, dim), K: 1}, &res); err != nil {
			t.Fatalf("query on fenced engine: %v", err)
		}
	})

	t.Run("stale epoch refused", func(t *testing.T) {
		// Build an engine whose epoch is > 1: run a durable primary,
		// restart its data dir as a follower, promote. The promotion
		// seals epoch+1, so any frame stamped with the old epoch is a
		// stale client of the previous timeline.
		dir := t.TempDir()
		cfg := serve.Config{Shards: 1, NodesPerShard: 4, Seed: 9, DataDir: dir}
		eng1, err := pidcan.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		oldEpoch := eng1.Epoch()
		if err := eng1.Close(); err != nil {
			t.Fatal(err)
		}
		fcfg := cfg
		fcfg.Follower = true
		eng, err := pidcan.NewEngine(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		newEpoch, err := eng.Promote()
		if err != nil {
			t.Fatal(err)
		}
		if newEpoch <= oldEpoch {
			t.Fatalf("promotion epoch %d not past %d", newEpoch, oldEpoch)
		}

		_, addr := startWire(t, eng)
		c := dialWire(t, addr)
		dim := eng.Config().CMax.Dim()
		avail := make([]float64, dim)

		c.WriteEpoch = oldEpoch // stale: the pre-promotion timeline
		err = c.Update(0, avail, false)
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != serve.CodeFenced {
			t.Fatalf("stale-epoch update: %v, want CodeFenced", err)
		}
		if eng.Role() != "primary" {
			t.Fatalf("stale frame changed engine role to %q", eng.Role())
		}
		// The current timeline still writes.
		c.WriteEpoch = newEpoch
		if err := c.Update(0, avail, false); err != nil {
			t.Fatalf("current-epoch update after stale frame: %v", err)
		}
	})
}

// TestWireGarbageClosesConnection: unframed junk is dropped by the
// stateless filter and the connection closed without a response.
func TestWireGarbageClosesConnection(t *testing.T) {
	eng := newTestEngine(t, serve.Config{Shards: 1, NodesPerShard: 4, Seed: 11})
	srv, addr := startWire(t, eng)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	junk := bytes.Repeat([]byte{0xDE, 0xAD}, 32)
	if _, err := raw.Write(junk); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF or a reset both mean "closed without a response" (the server
	// may RST when it closes with our junk still unread).
	if n, err := raw.Read(make([]byte, 64)); err == nil || n > 0 {
		t.Fatalf("garbage got %d bytes, err %v; want closed connection", n, err)
	}
	if srv.Stats().Rejected == 0 {
		t.Fatal("rejected counter did not move")
	}
}

// TestWireCorruptEveryByte is the request-path twin of the wal
// torn-tail test: take one valid update frame, corrupt each byte in
// turn, and require the server to reject every mutation — no
// response frame, no state change — because the CRC covers header
// and payload both.
func TestWireCorruptEveryByte(t *testing.T) {
	eng := newTestEngine(t, serve.Config{Shards: 1, NodesPerShard: 4, Seed: 13})
	srv, addr := startWire(t, eng)

	dim := eng.Config().CMax.Dim()
	avail := make([]float64, dim)
	for k := range avail {
		avail[k] = 42 // a sentinel no seeded node carries
	}
	frame := wire.AppendUpdate(nil, 77, 0, 0, avail, false)

	for i := range frame {
		corrupt := bytes.Clone(frame)
		corrupt[i] ^= 0x5A
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(corrupt); err != nil {
			c.Close()
			t.Fatalf("byte %d: write: %v", i, err)
		}
		// Half-close so a filter-passing header whose claimed payload
		// length changed cannot block the server in a payload read.
		c.(*net.TCPConn).CloseWrite()
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		// Drain until close: any byte back is a response the server
		// must not have produced. EOF and reset both count as closed.
		var got int
		var rerr error
		for {
			var n int
			n, rerr = c.Read(make([]byte, 256))
			got += n
			if rerr != nil {
				break
			}
		}
		c.Close()
		if got > 0 || rerr == nil {
			t.Fatalf("byte %d: corrupted frame drew a response (%d bytes, err %v)", i, got, rerr)
		}
	}
	if got := srv.Stats().Rejected; got < uint64(len(frame))/2 {
		// Not every mutation reaches the CRC check (a corrupted header
		// can die in the filter, a shrunken length can starve the read),
		// but the bulk must be counted rejections.
		t.Fatalf("rejected counter %d after %d corruptions", got, len(frame))
	}

	// No corrupted update leaked into the engine: the sentinel vector
	// is nowhere in a full snapshot query.
	resp, err := eng.Query(serve.QueryRequest{Demand: make([]float64, dim), K: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range resp.Candidates {
		if cand.Avail[0] == 42 {
			t.Fatal("a corrupted update frame was applied")
		}
	}

	// The pristine frame still works end to end.
	c := dialWire(t, addr)
	if err := c.Update(0, avail, false); err != nil {
		t.Fatalf("pristine frame after corruption sweep: %v", err)
	}
}
