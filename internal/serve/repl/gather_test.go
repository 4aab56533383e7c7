package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"testing"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

// upd is an update frame of n records for shard at (seg, pos); the
// record's node is its stream ordinal, so merged runs can be checked.
func upd(shard int, seg, pos uint64, n int) recordsFrame {
	f := recordsFrame{Shard: shard, Seg: seg, Pos: pos, Epoch: 1}
	for i := 0; i < n; i++ {
		f.Recs = append(f.Recs, wal.Record{
			Kind: wal.KindUpdate, Node: uint32(pos) + uint32(i), Avail: []float64{float64(shard), float64(i)},
		})
	}
	return f
}

// buffered returns a connection whose read buffer holds the first keep
// bytes (all when negative) of the encoded frames, as if they had
// arrived while the client was busy applying.
func buffered(t *testing.T, keep int, frames ...recordsFrame) *pconn {
	t.Helper()
	var wire bytes.Buffer
	w := &pconn{w: bufio.NewWriter(&wire)}
	for _, f := range frames {
		payload, err := encodeRecordsFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.writeFrame(payload); err != nil {
			t.Fatal(err)
		}
	}
	w.flush()
	data := wire.Bytes()
	if keep >= 0 {
		data = data[:keep]
	}
	return &pconn{r: bufio.NewReaderSize(bytes.NewReader(data), 1<<16)}
}

// next reads and decodes the next records frame the way stream does.
func next(t *testing.T, pc *pconn) recordsFrame {
	t.Helper()
	payload, err := pc.readFrame(maxCkptFrame)
	if err != nil {
		t.Fatal(err)
	}
	x := &r{buf: payload}
	if x.u8() != msgRecords {
		t.Fatal("not a records frame")
	}
	f, err := decodeRecordsFrame(x)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func shape(frames []recordsFrame) [][4]uint64 {
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
	pc := buffered(t, -1,
		upd(0, 1, 5, 1), upd(1, 1, 0, 2), upd(0, 1, 6, 1), upd(3, 2, 9, 1), upd(1, 1, 2, 1), upd(0, 1, 7, 2))
	got := gather(pc, next(t, pc))
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
	if n := pc.r.Buffered(); n != 0 {
		t.Fatalf("%d bytes left in the buffer", n)
	}
}

// TestGatherStopsAtBarriers: whatever is not a contiguous update frame
// of the same epoch ends the gather unconsumed, and the stream loop
// reads it next.
func TestGatherStopsAtBarriers(t *testing.T) {
	leave := recordsFrame{Shard: 1, Seg: 1, Pos: 0, Epoch: 1, Recs: []wal.Record{{Kind: wal.KindLeave, Node: 3}}}
	mixed := upd(1, 1, 0, 2)
	mixed.Recs[1] = wal.Record{Kind: wal.KindJoin, Node: 9}
	newer := upd(1, 1, 0, 1)
	newer.Epoch = 2
	for name, barrier := range map[string]recordsFrame{
		"leave":       leave,
		"join inside": mixed,
		"rotation":    upd(0, 2, 0, 1),
		"gap":         upd(0, 1, 3, 1),
		"newer epoch": newer,
	} {
		pc := buffered(t, -1, upd(0, 1, 0, 1), upd(0, 1, 1, 1), barrier, upd(0, 1, 2, 1))
		got := gather(pc, next(t, pc))
		if want := [][4]uint64{{0, 1, 0, 2}}; !reflect.DeepEqual(shape(got), want) {
			t.Fatalf("%s: gathered %v, want %v", name, shape(got), want)
		}
		if f := next(t, pc); !reflect.DeepEqual(f, barrier) {
			t.Fatalf("%s: next frame %+v, want the barrier %+v", name, f, barrier)
		}
	}
	// A frame that is not updates only is applied as it came, alone.
	pc := buffered(t, -1, leave, upd(0, 1, 0, 1))
	if got := gather(pc, next(t, pc)); len(got) != 1 || !reflect.DeepEqual(got[0], leave) {
		t.Fatalf("gather behind a leave returned %v", shape(got))
	}
	if f := next(t, pc); f.Shard != 0 || len(f.Recs) != 1 {
		t.Fatalf("update behind the leave was consumed: next is %+v", f)
	}
}

// TestGatherLeavesPartialAndDamagedFrames: a frame still in flight or
// failing its checksum stays in the buffer for readFrame to wait for or
// to report.
func TestGatherLeavesPartialAndDamagedFrames(t *testing.T) {
	one, err := encodeRecordsFrame(upd(0, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	size := 8 + len(one)
	for _, keep := range []int{size + 3, size + 8, 2*size - 1} {
		pc := buffered(t, keep, upd(0, 1, 0, 1), upd(0, 1, 1, 1))
		if got := gather(pc, next(t, pc)); len(got) != 1 || len(got[0].Recs) != 1 {
			t.Fatalf("keep %d: gathered %v from a partial second frame", keep, shape(got))
		}
		if n := pc.r.Buffered(); n != keep-size {
			t.Fatalf("keep %d: %d bytes buffered after gather, want %d", keep, n, keep-size)
		}
	}

	pc := buffered(t, -1, upd(0, 1, 0, 1), upd(0, 1, 1, 1))
	first := next(t, pc)
	raw, _ := pc.r.Peek(pc.r.Buffered())
	raw[len(raw)-1] ^= 0xff // Peek aliases the buffer
	if got := gather(pc, first); len(got) != 1 || len(got[0].Recs) != 1 {
		t.Fatalf("gathered %v across a damaged frame", shape(got))
	}
	if _, err := pc.readFrame(maxCkptFrame); err == nil {
		t.Fatal("readFrame accepted the damaged frame")
	}
}

// TestGatherIsBounded: one gather stops at maxGather records.
func TestGatherIsBounded(t *testing.T) {
	var frames []recordsFrame
	for i := 0; i < maxGather+10; i++ {
		frames = append(frames, upd(i%2, 1, uint64(i/2), 1))
	}
	pc := buffered(t, -1, frames...)
	total := 0
	for _, f := range gather(pc, next(t, pc)) {
		total += len(f.Recs)
	}
	if total != maxGather {
		t.Fatalf("gathered %d records, want %d", total, maxGather)
	}
	if f := next(t, pc); f.Shard != maxGather%2 || f.Pos != uint64(maxGather/2) {
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
	var wire bytes.Buffer
	w := &pconn{w: bufio.NewWriterSize(&wire, 1<<16)}
	frames := 0
	for k := 0; ; k++ {
		wrote := false
		for i, recs := range perShard {
			if k >= len(recs) {
				continue
			}
			payload, err := encodeRecordsFrame(recordsFrame{Shard: i, Seg: 1, Pos: uint64(k), Epoch: p.Epoch(), Recs: recs[k : k+1]})
			if err != nil {
				t.Fatal(err)
			}
			w.writeFrame(payload)
			frames, wrote = frames+1, true
		}
		if !wrote {
			break
		}
	}
	w.flush()

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
	// net.Pipe hands one Write to one Read whole, so the first readFrame
	// leaves the entire backlog in the client's buffer.
	here, there := net.Pipe()
	go func() {
		there.Write(wire.Bytes())
		there.Close()
	}()
	if err := cl.stream(newPconn(here), f, f.Epoch()); !errors.Is(err, io.EOF) {
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
