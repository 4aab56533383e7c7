package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
)

// FuzzWireFrame feeds arbitrary bytes through what a peer does with a
// received frame: the header filter, the CRC check and the payload
// decoder for the frame's op and direction — the four replication ops
// and their op-log record blobs included. Nothing may panic, no decode
// may allocate more than MaxPayload, and a payload that decodes must
// re-encode to the identical bytes (the whole frame, when its length
// and CRC were right). The decoders run whatever the CRC says, so the
// fuzzer reaches them without forging checksums.
//
//	go test -run '^$' -fuzz FuzzWireFrame -fuzztime=20s ./internal/serve/wire
func FuzzWireFrame(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeader(data)
		if err != nil {
			return
		}
		payload := data[HeaderSize:]
		whole := int(h.PLen) == len(payload) && VerifyFrame(data, payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		encode := decodeFrame(h, payload)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > MaxPayload {
			t.Fatalf("op %d flags %d: decoding a %d-byte payload allocated %d bytes", h.Op, h.Flags, len(payload), n)
		}
		if encode == nil {
			return
		}
		re := encode(h)
		if !bytes.Equal(re[HeaderSize:], payload) {
			t.Fatalf("op %d flags %d: payload\n%x\nre-encodes as\n%x", h.Op, h.Flags, payload, re[HeaderSize:])
		}
		if whole && !bytes.Equal(re, data) {
			t.Fatalf("op %d flags %d: frame\n%x\nre-encodes as\n%x", h.Op, h.Flags, data, re)
		}
	})
}

// decodeFrame runs the decoder a server (requests) or client
// (responses) runs on payload, and returns the encoder that rebuilds
// the frame from what it decoded, or nil when the payload does not
// decode or the frame is one no peer decodes.
func decodeFrame(h Header, p []byte) func(Header) []byte {
	switch h.Flags {
	case FlagResponse | FlagError:
		var e Error
		if DecodeError(p, &e) != nil {
			return nil
		}
		return func(h Header) []byte {
			return AppendError(nil, h.Op, h.ReqID, h.Epoch, e.Code, e.RetryAfter, e.Primary, e.Msg)
		}
	case 0:
		return decodeRequest(h, p)
	case FlagResponse:
		return decodeResponse(h, p)
	}
	return nil
}

func decodeRequest(h Header, p []byte) func(Header) []byte {
	switch h.Op {
	case OpQuery:
		var q Query
		if DecodeQuery(p, &q) != nil {
			return nil
		}
		return func(h Header) []byte { return AppendQuery(nil, h.ReqID, h.Epoch, &q) }
	case OpUpdate:
		var u Update
		if DecodeUpdate(p, &u) != nil {
			return nil
		}
		return func(h Header) []byte { return AppendUpdate(nil, h.ReqID, h.Epoch, u.Node, u.Avail, u.Announce) }
	case OpJoin:
		var j Join
		if DecodeJoin(p, &j) != nil {
			return nil
		}
		return func(h Header) []byte { return AppendJoin(nil, h.ReqID, h.Epoch, j.Shard, j.Avail) }
	case OpLeave:
		node, err := DecodeLeave(p)
		if err != nil {
			return nil
		}
		return func(h Header) []byte { return AppendLeave(nil, h.ReqID, h.Epoch, node) }
	case OpFedTake:
		node, err := DecodeFedTake(p)
		if err != nil {
			return nil
		}
		return func(h Header) []byte { return AppendFedTake(nil, h.ReqID, h.Epoch, node) }
	case OpReplSubscribe:
		var s ReplSubscribe
		if DecodeReplSubscribe(p, &s) != nil {
			return nil
		}
		return func(h Header) []byte { return AppendReplSubscribe(nil, h.ReqID, h.Epoch, &s) }
	}
	return nil
}

func decodeResponse(h Header, p []byte) func(Header) []byte {
	switch h.Op {
	case OpQuery:
		var r QueryResult
		if DecodeQueryResponse(p, &r) != nil {
			return nil
		}
		resp := serve.QueryResponse{Cached: r.Cached, ShardsQueried: r.ShardsQueried, Hops: r.Hops}
		for _, c := range r.Candidates {
			resp.Candidates = append(resp.Candidates, serve.Candidate{Node: serve.GlobalID(c.Node), Surplus: c.Surplus, Avail: c.Avail})
		}
		return func(h Header) []byte { return AppendQueryResponse(nil, h.ReqID, h.Epoch, &resp) }
	case OpJoin:
		node, err := DecodeJoinResponse(p)
		if err != nil {
			return nil
		}
		return func(h Header) []byte { return AppendJoinResponse(nil, h.ReqID, h.Epoch, node) }
	case OpFedTake:
		avail, degraded, err := DecodeFedTakeResponse(p, nil)
		if err != nil {
			return nil
		}
		return func(h Header) []byte { return AppendFedTakeResponse(nil, h.ReqID, h.Epoch, avail, degraded) }
	case OpFedSummary:
		var sum Summary
		ok, err := DecodeFedSummaryResponse(p, &sum)
		if err != nil {
			return nil
		}
		if !ok {
			return func(h Header) []byte { return AppendFedSummaryResponse(nil, h.ReqID, h.Epoch, nil) }
		}
		return func(h Header) []byte { return AppendFedSummaryResponse(nil, h.ReqID, h.Epoch, &sum) }
	case OpReplSubscribe:
		var w ReplWelcome
		if DecodeReplWelcome(p, &w) != nil {
			return nil
		}
		return func(h Header) []byte { return AppendReplWelcome(nil, h.ReqID, h.Epoch, &w) }
	case OpReplRecords:
		var r ReplRecords
		if DecodeReplRecords(p, &r) != nil {
			return nil
		}
		return func(h Header) []byte { return AppendReplRecords(nil, h.ReqID, h.Epoch, &r) }
	case OpReplCheckpoint:
		var c ReplCheckpoint
		if DecodeReplCheckpoint(p, &c) != nil {
			return nil
		}
		return func(h Header) []byte { return appendCheckpointChunk(nil, h.ReqID, h.Epoch, &c) }
	case OpReplHeartbeat:
		var hb ReplHeartbeat
		if DecodeReplHeartbeat(p, &hb) != nil {
			return nil
		}
		return func(h Header) []byte { return AppendReplHeartbeat(nil, h.ReqID, h.Epoch, &hb) }
	}
	return nil
}

// seedFrames is one valid frame per codec, the frames
// TestCodecRoundTrips round-trips.
func seedFrames() [][]byte {
	resp := serve.QueryResponse{
		Cached: true, ShardsQueried: 3, Hops: 17,
		Candidates: []serve.Candidate{
			{Node: serve.GlobalID(1<<32 | 5), Surplus: 2.5, Avail: []float64{4, 5}},
			{Node: 7, Surplus: 0.25, Avail: []float64{1, 2}},
		},
	}
	return [][]byte{
		AppendQuery(nil, 42, 9, &Query{Demand: []float64{1.5, 0, 3.25}, K: 7, Consistent: true, NoCache: true}),
		AppendQueryResponse(nil, 3, 11, &resp),
		AppendUpdate(nil, 8, 2, 1<<40|3, []float64{0.5, 9}, true),
		AppendJoin(nil, 10, 0, 2, []float64{1, 2}),
		AppendJoinResponse(nil, 10, 0, 1<<32|8),
		AppendLeave(nil, 11, 1, 99),
		AppendFedTake(nil, 13, 2, 1<<40|9),
		AppendFedTakeResponse(nil, 14, 3, []float64{3.5, 0, 7}, true),
		AppendFedSummaryResponse(nil, 16, 5, &Summary{Seq: 1<<40 | 7, Pop: 12345, Max: []float64{25.6, 80, 0}}),
		AppendReplSubscribe(nil, 21, 6, &ReplSubscribe{Shards: 2, Pos: []serve.ReplPos{{Seg: 4, Pos: 17}, {Seg: 1, Pos: 0}}}),
		AppendReplWelcome(nil, 22, 7, &ReplWelcome{Resume: true, Shards: 4, Seed: 1<<40 | 3, NodesPerShard: 2500, Dims: 5}),
		AppendReplRecords(nil, 23, 8, &ReplRecords{Shard: 2, Seg: 3, Pos: 40, Recs: []wal.Record{
			{Kind: wal.KindUpdate, Node: 7, Announce: true, Avail: []float64{1, 2.5}},
			{Kind: wal.KindJoin, Node: 9, Repoint: true, Ext: 1<<32 | 4, Old: 5},
			{Kind: wal.KindLeave, Node: 7},
		}}),
		AppendReplCheckpoint(nil, 26, 9, 13, []byte("image")),
		AppendReplHeartbeat(nil, 27, 10, &ReplHeartbeat{Sent: 1_700_000_000_123_456_789, Pos: []serve.ReplPos{{Seg: 2, Pos: 9}}}),
		AppendError(nil, OpUpdate, 12, 4, serve.CodeReadOnly, 1500*time.Millisecond, "10.0.0.1:7000", "read-only follower"),
	}
}
