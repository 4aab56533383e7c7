package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// frame is one record frame as a primary pushes it: the epoch in its
// header and its batch.
type frame struct {
	epoch uint64
	wire.ReplRecords
}

// upd is an update frame of n records for shard at (seg, pos); the
// record's node is its stream ordinal, so merged runs can be checked.
func upd(shard int, seg, pos uint64, n int) frame {
	f := frame{epoch: 1, ReplRecords: wire.ReplRecords{Shard: shard, Seg: seg, Pos: pos}}
	for i := 0; i < n; i++ {
		f.Recs = append(f.Recs, wal.Record{
			Kind: wal.KindUpdate, Node: uint32(pos) + uint32(i), Avail: []float64{float64(shard), float64(i)},
		})
	}
	return f
}

// encode returns frames as the bytes of a replication stream.
func encode(frames ...frame) []byte {
	var data []byte
	for i := range frames {
		data = wire.AppendReplRecords(data, 1, frames[i].epoch, &frames[i].ReplRecords)
	}
	return data
}

// pipe returns a follower's end of a stream connection, as a wire
// client, and the primary's end.
func pipe(t *testing.T) (*wire.Client, net.Conn) {
	t.Helper()
	here, there := net.Pipe()
	t.Cleanup(func() {
		here.Close()
		there.Close()
	})
	here.SetReadDeadline(time.Now().Add(5 * time.Second))
	return wire.NewClient(here), there
}

// arrived returns a client whose read buffer holds data once its first
// frame is read, as if the rest had arrived while the follower was
// busy applying: net.Pipe hands one Write to one Read whole.
func arrived(t *testing.T, data []byte) *wire.Client {
	t.Helper()
	wc, there := pipe(t)
	go there.Write(data)
	return wc
}

// next reads the next frame the way stream does and requires a record
// frame.
func next(t *testing.T, wc *wire.Client) *wire.Response {
	t.Helper()
	r, err := wc.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if r.Op != wire.OpReplRecords {
		t.Fatalf("op %d is not a record frame", r.Op)
	}
	return r
}

func shape(frames []wire.ReplRecords) [][4]uint64 {
	var out [][4]uint64
	for _, f := range frames {
		out = append(out, [4]uint64{uint64(f.Shard), f.Seg, f.Pos, uint64(len(f.Recs))})
	}
	return out
}

// TestGatherMergesBufferedUpdatesPerShard: a backlog of interleaved
// update frames becomes one frame per shard, each shard's records in
// stream order, and the buffer is consumed.
func TestGatherMergesBufferedUpdatesPerShard(t *testing.T) {
	wc := arrived(t, encode(
		upd(0, 1, 5, 1), upd(1, 1, 0, 2), upd(0, 1, 6, 1), upd(3, 2, 9, 1), upd(1, 1, 2, 1), upd(0, 1, 7, 2)))
	got, held, err := gather(wc, next(t, wc))
	if err != nil || held != nil {
		t.Fatalf("gather held %v, err %v", held, err)
	}
	want := [][4]uint64{{0, 1, 5, 4}, {1, 1, 0, 3}, {3, 2, 9, 1}}
	if !reflect.DeepEqual(shape(got), want) {
		t.Fatalf("gathered (shard, seg, pos, records) %v, want %v", shape(got), want)
	}
	for _, f := range got {
		for i, rec := range f.Recs {
			if rec.Node != uint32(f.Pos)+uint32(i) || rec.Avail[0] != float64(f.Shard) {
				t.Fatalf("shard %d record %d is node %d avail %v: out of stream order", f.Shard, i, rec.Node, rec.Avail)
			}
		}
	}
	if n := wc.Buffered(); n != 0 {
		t.Fatalf("%d bytes left in the buffer", n)
	}
}

// TestGatherStopsAtBarriers: whatever is not a contiguous update frame
// of the same epoch ends the gather unmerged, handed back for the
// stream loop to handle next, and nothing behind it is read.
func TestGatherStopsAtBarriers(t *testing.T) {
	leave := frame{epoch: 1, ReplRecords: wire.ReplRecords{Shard: 1, Seg: 1, Pos: 0, Recs: []wal.Record{{Kind: wal.KindLeave, Node: 3}}}}
	mixed := upd(1, 1, 0, 2)
	mixed.Recs[1] = wal.Record{Kind: wal.KindJoin, Node: 9}
	newer := upd(1, 1, 0, 1)
	newer.epoch = 2
	for name, barrier := range map[string]frame{
		"leave":       leave,
		"join inside": mixed,
		"rotation":    upd(0, 2, 0, 1),
		"gap":         upd(0, 1, 3, 1),
		"newer epoch": newer,
	} {
		wc := arrived(t, encode(upd(0, 1, 0, 1), upd(0, 1, 1, 1), barrier, upd(0, 1, 2, 1)))
		got, held, err := gather(wc, next(t, wc))
		if want := [][4]uint64{{0, 1, 0, 2}}; err != nil || !reflect.DeepEqual(shape(got), want) {
			t.Fatalf("%s: gathered %v (err %v), want %v", name, shape(got), err, want)
		}
		if held == nil || held.Epoch != barrier.epoch || !reflect.DeepEqual(held.Records, barrier.ReplRecords) {
			t.Fatalf("%s: handed back %+v, want the barrier %+v", name, held, barrier)
		}
		if f := next(t, wc); f.Records.Shard != 0 || f.Records.Pos != 2 {
			t.Fatalf("%s: the update behind the barrier was consumed: next is %+v", name, f.Records)
		}
	}
	// A frame that is not updates only is applied as it came, alone.
	wc := arrived(t, encode(leave, upd(0, 1, 0, 1)))
	if got, held, err := gather(wc, next(t, wc)); len(got) != 1 || !reflect.DeepEqual(got[0], leave.ReplRecords) || held != nil || err != nil {
		t.Fatalf("gather behind a leave returned %v (held %v, err %v)", shape(got), held, err)
	}
	if f := next(t, wc); f.Records.Shard != 0 || len(f.Records.Recs) != 1 {
		t.Fatalf("update behind the leave was consumed: next is %+v", f.Records)
	}
}

// TestGatherLeavesPartialAndDamagedFrames: a frame that has not started
// arriving is left for the stream loop's next read, one that has
// started is completed and merged, and a damaged one is never merged:
// gather returns the frames before it and the read error.
func TestGatherLeavesPartialAndDamagedFrames(t *testing.T) {
	one, two := encode(upd(0, 1, 0, 1)), encode(upd(0, 1, 1, 1))

	wc, there := pipe(t)
	gathered := make(chan struct{})
	go func() {
		there.Write(one)
		<-gathered
		there.Write(two)
	}()
	got, held, err := gather(wc, next(t, wc))
	close(gathered)
	if len(got) != 1 || len(got[0].Recs) != 1 || held != nil || err != nil {
		t.Fatalf("gathered %v (held %v, err %v) with nothing of the second frame arrived", shape(got), held, err)
	}
	if f := next(t, wc); f.Records.Pos != 1 {
		t.Fatalf("next frame starts at %d, want the second frame", f.Records.Pos)
	}

	for _, cut := range []int{3, wire.HeaderSize, len(two) - 1} {
		wc, there := pipe(t)
		go func() {
			there.Write(append(append([]byte(nil), one...), two[:cut]...))
			there.Write(two[cut:])
		}()
		got, held, err := gather(wc, next(t, wc))
		if want := [][4]uint64{{0, 1, 0, 2}}; !reflect.DeepEqual(shape(got), want) || held != nil || err != nil {
			t.Fatalf("cut %d: gathered %v (held %v, err %v), want %v", cut, shape(got), held, err, want)
		}
	}

	data := encode(upd(0, 1, 0, 1), upd(0, 1, 1, 1))
	data[len(data)-1] ^= 0xff
	wc = arrived(t, data)
	if got, held, err := gather(wc, next(t, wc)); len(got) != 1 || len(got[0].Recs) != 1 || held != nil || err == nil {
		t.Fatalf("gathered %v (held %v, err %v) across a damaged frame", shape(got), held, err)
	}
}

// TestGatherIsBounded: one gather stops at maxGather records.
func TestGatherIsBounded(t *testing.T) {
	var frames []frame
	for i := 0; i < maxGather+10; i++ {
		frames = append(frames, upd(i%2, 1, uint64(i/2), 1))
	}
	wc := arrived(t, encode(frames...))
	got, held, err := gather(wc, next(t, wc))
	if held != nil || err != nil {
		t.Fatalf("gather held %v, err %v", held, err)
	}
	total := 0
	for _, f := range got {
		total += len(f.Recs)
	}
	if total != maxGather {
		t.Fatalf("gathered %d records, want %d", total, maxGather)
	}
	if f := next(t, wc).Records; f.Shard != maxGather%2 || f.Pos != uint64(maxGather/2) {
		t.Fatalf("next frame after the bound is shard %d pos %d", f.Shard, f.Pos)
	}
}

// TestGatherStreamAppliesBacklogInFewBatches drives the client's stream
// loop over a backlog that is already in its read buffer — a primary's
// whole mixed history, one frame per record, shards interleaved — and
// asserts the follower converges to the primary's exact state and log
// bytes while its shards ran far fewer batches than frames arrived.
func TestGatherStreamAppliesBacklogInFewBatches(t *testing.T) {
	cfg := testConfig(3)
	pdir, fdir := t.TempDir(), t.TempDir()
	pcfg := cfg
	pcfg.DataDir = pdir
	p, err := serve.New(pcfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Runs of updates with a join and a leave between them: nothing here
	// depends on the order across shards, so any interleaving of the
	// shards' logs is a stream the primary could have sent.
	nodes := p.Nodes()
	for i := 0; i < 300; i++ {
		if err := p.Update(nodes[i%len(nodes)], vector.Of(float64(i%10), float64(i%7)), i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			id, err := p.Join(vector.Of(5, float64(i%9)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	perShard := make([][]wal.Record, cfg.Shards)
	for i := range perShard {
		_, perShard[i], _, _, err = wal.ReadSegmentInfo(wal.SegmentPath(filepath.Join(pdir, fmt.Sprintf("shard-%d", i)), 1))
		if err != nil {
			t.Fatal(err)
		}
	}
	var stream []byte
	frames := 0
	for k := 0; ; k++ {
		wrote := false
		for i, recs := range perShard {
			if k >= len(recs) {
				continue
			}
			stream = wire.AppendReplRecords(stream, 1, p.Epoch(), &wire.ReplRecords{Shard: i, Seg: 1, Pos: uint64(k), Recs: recs[k : k+1]})
			frames, wrote = frames+1, true
		}
		if !wrote {
			break
		}
	}

	fcfg := cfg
	fcfg.DataDir, fcfg.Follower = fdir, true
	f, err := serve.New(fcfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cl, err := NewClient(ClientConfig{
		Primary: "unused", DataDir: fdir, Shards: cfg.Shards,
		Mount: func() (*serve.Engine, error) { return f, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for range perShard {
		cl.pos = append(cl.pos, serve.ReplPos{Seg: 1})
	}
	// net.Pipe hands one Write to one Read whole, so the first frame read
	// leaves the entire backlog in the client's buffer.
	here, there := net.Pipe()
	go func() {
		there.Write(stream)
		there.Close()
	}()
	if err := cl.stream(here, wire.NewClient(here), f, f.Epoch()); !errors.Is(err, io.EOF) {
		t.Fatalf("stream ended with %v, want EOF after the backlog", err)
	}

	assertSameState(t, stateOf(t, p), stateOf(t, f), "backlog")
	assertMirrorIdentical(t, pdir, fdir, cfg.Shards)
	batches := uint64(0)
	for _, s := range f.Stats().Shards {
		batches += s.Batches
	}
	if batches*4 > uint64(frames) {
		t.Fatalf("follower ran %d batches for %d buffered frames: the backlog was not gathered", batches, frames)
	}
	t.Logf("%d frames applied in %d batches", frames, batches)
}
