package replay_test

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/serve/capture"
	"pidcan/internal/serve/replay"
	"pidcan/internal/serve/wal"
	"pidcan/internal/task"
	"pidcan/internal/vector"
)

// TestRecordReplayProperty is the subsystem's end-to-end property:
// record a live mixed run — updates, joins, leaves, queries, one
// explicit migration — through the real file-backed Recorder, replay
// the trace into a fresh engine, and require (a) byte-identical
// ranked candidate lists for every captured query and (b) an
// identical final node set, with zero capture drops.
func TestRecordReplayProperty(t *testing.T) {
	hdr := capture.Header{
		Shards:        4,
		NodesPerShard: 12,
		Seed:          99,
		CMax:          []float64(task.CMax()),
	}
	live, err := pidcan.NewEngine(replay.EngineConfig(hdr))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	path := filepath.Join(t.TempDir(), "trace.bin")
	rec, err := capture.NewRecorder(path, hdr, capture.RecorderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	live.SetCapture(rec)

	rng := rand.New(rand.NewSource(4242))
	cmax := vector.Vec(hdr.CMax)
	randVec := func(lo, hi float64) vector.Vec {
		v := vector.New(len(cmax))
		for i := range v {
			v[i] = (lo + (hi-lo)*rng.Float64()) * cmax[i]
		}
		return v
	}

	// The live mixed run, driven sequentially so the trace order is
	// the issue order and strict digest comparison is sound.
	var liveResponses []serve.QueryResponse
	query := func() {
		resp, err := live.Query(serve.QueryRequest{Demand: randVec(0.05, 0.4), K: 3, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		liveResponses = append(liveResponses, resp)
	}
	alive := live.Nodes()
	for _, id := range alive {
		if err := live.Update(id, randVec(0.3, 1.0), false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		switch rng.Intn(10) {
		case 0:
			if id, err := live.JoinOn(i%hdr.Shards, randVec(0.4, 0.9)); err == nil {
				alive = append(alive, id)
			}
		case 1:
			if len(alive) > 16 {
				victim := rng.Intn(len(alive))
				if live.Leave(alive[victim]) == nil {
					alive = append(alive[:victim], alive[victim+1:]...)
				}
			}
		case 2, 3, 4:
			if err := live.Update(alive[rng.Intn(len(alive))], randVec(0.2, 1.0), false); err != nil {
				t.Fatal(err)
			}
		default:
			query()
		}
		if i == 75 {
			// The one migration: move a node to the next shard and keep
			// writing to it under its stable external id.
			mover := alive[0]
			if err := live.Migrate(mover, (mover.Shard()+1)%hdr.Shards); err != nil {
				t.Fatal(err)
			}
			if err := live.Update(mover, randVec(0.5, 0.9), false); err != nil {
				t.Fatal(err)
			}
		}
	}

	live.SetCapture(nil)
	// Close drains the ring; the counters are complete only after it.
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Dropped != 0 {
		t.Fatalf("capture dropped %d events on a sequential run", st.Dropped)
	}
	if st.Records == 0 {
		t.Fatal("capture recorded nothing")
	}

	rhdr, events, torn, err := capture.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("%d torn bytes in a cleanly closed trace", torn)
	}
	if uint64(len(events)) != st.Records {
		t.Fatalf("trace has %d events, recorder counted %d", len(events), st.Records)
	}

	// Replay into a fresh engine and collect every replayed response.
	fresh, err := pidcan.NewEngine(replay.EngineConfig(rhdr))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	var replayed []serve.QueryResponse
	res, err := replay.Run(fresh, rhdr, events, replay.Options{
		Strict: true,
		OnQuery: func(ev *capture.Event, resp serve.QueryResponse, err error) {
			if err != nil {
				t.Errorf("replayed query failed: %v", err)
			}
			replayed = append(replayed, resp)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Check(replay.Invariants{ZeroAckedWriteLoss: true, DigestEquivalence: true}); len(v) > 0 {
		t.Fatalf("invariants violated: %v", v)
	}

	// (a) byte-identical ranked candidates, query by query.
	if len(replayed) != len(liveResponses) {
		t.Fatalf("replayed %d queries, recorded %d", len(replayed), len(liveResponses))
	}
	for i := range replayed {
		if !reflect.DeepEqual(replayed[i].Candidates, liveResponses[i].Candidates) {
			t.Fatalf("query %d: replayed candidates differ\nlive:   %+v\nreplay: %+v",
				i, liveResponses[i].Candidates, replayed[i].Candidates)
		}
	}

	// (b) identical final node set (Nodes() is deterministic order).
	if ln, fn := live.Nodes(), fresh.Nodes(); !reflect.DeepEqual(ln, fn) {
		t.Fatalf("final node sets differ: live %d nodes, fresh %d", len(ln), len(fn))
	}
}

// TestReplayReferenceIsUncached replays cacheable queries, each demand
// four times, so that the target answers some from its cache, and
// requires the reference to answer every one by an index search: its
// cache sees no lookup, and the two still agree on every answer.
func TestReplayReferenceIsUncached(t *testing.T) {
	hdr := capture.Header{Shards: 2, NodesPerShard: 16, Seed: 11, CMax: []float64(task.CMax())}
	cmax := vector.Vec(hdr.CMax)
	rng := rand.New(rand.NewSource(7))
	var events []capture.Event
	for shard := range hdr.Shards {
		for node := range hdr.NodesPerShard {
			avail := vector.New(cmax.Dim())
			for d := range avail {
				avail[d] = cmax[d] * (0.2 + 0.8*rng.Float64())
			}
			events = append(events, capture.Event{Kind: capture.EvMutation, Shard: shard,
				Rec: wal.Record{Kind: wal.KindUpdate, Node: uint32(node), Avail: avail}})
		}
	}
	for i := range 40 {
		events = append(events, capture.Event{Kind: capture.EvQuery, Demand: cmax.Scale(0.1 * float64(i%10+1)), K: 3})
	}
	engine := func() *serve.Engine {
		e, err := pidcan.NewEngine(replay.EngineConfig(hdr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	sut, ref := engine(), engine()
	res, err := replay.Run(sut, hdr, events, replay.Options{Reference: ref})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 40 || res.AckedWrites != hdr.Shards*hdr.NodesPerShard || res.RefMismatches != 0 {
		t.Fatalf("replay: %+v; want 40 queries, every update acked, no mismatch", res)
	}
	if st := ref.Stats(); st.CacheHits+st.CacheMisses != 0 {
		t.Fatalf("the reference's cache saw %d hits and %d misses, want no lookup", st.CacheHits, st.CacheMisses)
	}
	if st := sut.Stats(); st.CacheHits == 0 {
		t.Fatalf("the target's cache saw %d hits and %d misses, want hits", st.CacheHits, st.CacheMisses)
	}
}

// TestReplayFaultSkip replays a fault against a target that cannot
// express it and requires the replay to count a skip, not fail.
func TestReplayFaultSkip(t *testing.T) {
	hdr := capture.Header{Shards: 2, NodesPerShard: 4, Seed: 5, CMax: []float64(task.CMax())}
	events := []capture.Event{
		{Kind: capture.EvFault, Fault: capture.FaultPromote, Target: 0},
	}
	e, err := pidcan.NewEngine(replay.EngineConfig(hdr))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// An engine has Promote, so this is applied (not skipped) even if
	// it errors on a primary; wrap in a Service-only facade to hide it.
	res, err := replay.Run(serviceOnly{e}, hdr, events, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsSkipped != 1 {
		t.Fatalf("expected 1 skipped fault, got %+v", res)
	}
}

// serviceOnly hides every optional capability of an engine.
type serviceOnly struct{ e *serve.Engine }

func (s serviceOnly) Query(q serve.QueryRequest) (serve.QueryResponse, error) { return s.e.Query(q) }
func (s serviceOnly) Update(id serve.GlobalID, v vector.Vec, a bool) error {
	return s.e.Update(id, v, a)
}
func (s serviceOnly) Join(v vector.Vec) (serve.GlobalID, error)           { return s.e.Join(v) }
func (s serviceOnly) JoinOn(sh int, v vector.Vec) (serve.GlobalID, error) { return s.e.JoinOn(sh, v) }
func (s serviceOnly) Leave(id serve.GlobalID) error                       { return s.e.Leave(id) }
func (s serviceOnly) Take(id serve.GlobalID) (vector.Vec, error)          { return s.e.Take(id) }
func (s serviceOnly) Nodes() []serve.GlobalID                             { return s.e.Nodes() }
func (s serviceOnly) Epoch() uint64                                       { return s.e.Epoch() }
func (s serviceOnly) Fence(epoch uint64)                                  { s.e.Fence(epoch) }
func (s serviceOnly) PrimaryAddr() string                                 { return s.e.PrimaryAddr() }
func (s serviceOnly) StatsPayload() any                                   { return s.e.StatsPayload() }
