package wire_test

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
)

// Query frames as the encoder wrote them before a consistent query
// meant one placement only. A consistent query then carried qfScopeOne
// for its one-shard form; legacyAll is that form's absence, the
// retired scatter over every shard.
const (
	goldenConsistent        = "c90101002a00000009000000000000001d000000a488fc900503000300000000000000f83f00000000000000000000000000000a40"
	goldenConsistentNoCache = "c90101002b00000009000000000000001d000000a01265f50703000300000000000000f83f00000000000000000000000000000a40"
	goldenSnapshot          = "c90101002c00000009000000000000001d0000007bce03db0003000300000000000000f83f00000000000000000000000000000a40"
	goldenConsistentResp    = "c90101012a00000009000000000000005f000000e6198db60001001100000011000000030002000500000001000000000000000000d03f0000000000000040000000000000f03f00000000000010400900000001000000000000000000f83f000000000000084000000000000000400000000000002040"
	goldenSnapshotResp      = "c90101012c000000090000000000000037000000f9baa8d20100000000000000000000030001000500000001000000000000000000d03f0000000000000040000000000000f03f0000000000001040"
	legacyAll               = "c90101002d00000009000000000000001d000000133f921b0103000300000000000000f83f00000000000000000000000000000a40"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQueryFramesAreByteIdentical pins the query op's bytes: every
// request and response frame the encoder writes today equals the one
// it wrote when a consistent query could also scatter, so peers of
// either side read each other.
func TestQueryFramesAreByteIdentical(t *testing.T) {
	demand := []float64{1.5, 0, 3.25}
	cands := []serve.Candidate{
		{Node: serve.Global(1, 5), Avail: pidcan.Vec{2, 1, 4}, Surplus: 0.25},
		{Node: serve.Global(1, 9), Avail: pidcan.Vec{3, 2, 8}, Surplus: 1.5},
	}
	for _, tc := range []struct {
		name   string
		golden string
		frame  []byte
	}{
		{"consistent", goldenConsistent,
			wire.AppendQuery(nil, 42, 9, &wire.Query{Demand: demand, K: 3, Consistent: true})},
		{"consistent_no_cache", goldenConsistentNoCache,
			wire.AppendQuery(nil, 43, 9, &wire.Query{Demand: demand, K: 3, Consistent: true, NoCache: true})},
		{"snapshot", goldenSnapshot,
			wire.AppendQuery(nil, 44, 9, &wire.Query{Demand: demand, K: 3})},
		{"consistent_response", goldenConsistentResp,
			wire.AppendQueryResponse(nil, 42, 9, &serve.QueryResponse{Candidates: cands, ShardsQueried: 1, Hops: 17})},
		{"snapshot_response", goldenSnapshotResp,
			wire.AppendQueryResponse(nil, 44, 9, &serve.QueryResponse{Candidates: cands[:1], Cached: true})},
	} {
		if want := unhex(t, tc.golden); !bytes.Equal(tc.frame, want) {
			t.Errorf("%s frame\n%x\nwant\n%x", tc.name, tc.frame, want)
		}
	}

	var q wire.Query
	if err := wire.DecodeQuery(unhex(t, goldenConsistent)[wire.HeaderSize:], &q); err != nil || !q.Consistent || q.NoCache || q.K != 3 {
		t.Fatalf("golden consistent frame decodes as %+v, %v", q, err)
	}
	var res wire.QueryResult
	if err := wire.DecodeQueryResponse(unhex(t, goldenConsistentResp)[wire.HeaderSize:], &res); err != nil ||
		res.Hops != 17 || res.ShardsQueried != 1 || len(res.Candidates) != 2 {
		t.Fatalf("golden consistent response decodes as %+v, %v", res, err)
	}
}

// TestServerRefusesTheRetiredScatter: a consistent frame without
// qfScopeOne asks for a scatter over every shard, which no server
// runs any more. It is refused as malformed (CodeBadRequest), never
// answered from one shard as if it had asked for that; the same query
// with the flag is answered.
func TestServerRefusesTheRetiredScatter(t *testing.T) {
	eng := newTestEngine(t, serve.Config{Shards: 2, NodesPerShard: 8, Seed: 5, CMax: pidcan.Vec{4, 4, 8}, FlushInterval: time.Hour})
	handle := wire.NewServer(func() serve.Service { return eng }, wire.ServerConfig{}).HandleFrame()

	out := handle(nil, unhex(t, legacyAll))
	h, err := wire.ParseHeader(out)
	if err != nil {
		t.Fatal(err)
	}
	var we wire.Error
	if h.Flags&wire.FlagError == 0 || wire.DecodeError(out[wire.HeaderSize:], &we) != nil || we.Code != wire.CodeBadRequest {
		t.Fatalf("retired scatter frame answered flags %#x %+v, want CodeBadRequest", h.Flags, we)
	}

	out = handle(nil, unhex(t, goldenConsistent))
	var res wire.QueryResult
	if h, err = wire.ParseHeader(out); err != nil || h.Flags&wire.FlagError != 0 ||
		wire.DecodeQueryResponse(out[wire.HeaderSize:], &res) != nil || res.ShardsQueried != 1 {
		t.Fatalf("consistent frame answered flags %#x %+v, want one shard's answer", h.Flags, res)
	}
}
