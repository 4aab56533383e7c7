package repl

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wal"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// writeCounter is the primary's end of a follower connection that
// records every non-empty Write and, while gate is set, holds the
// next one until gate is closed. Reads block until Close, as a
// follower that sends nothing after its subscribe.
type writeCounter struct {
	net.Conn // nil: only the methods below are called
	mu       sync.Mutex
	writes   [][]byte
	gate     chan struct{}
	held     chan struct{} // closed once a gated Write is waiting
	closed   chan struct{}
}

func (c *writeCounter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.mu.Lock()
	gate := c.gate
	c.gate = nil
	c.mu.Unlock()
	if gate != nil {
		close(c.held)
		<-gate
	}
	c.mu.Lock()
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	return len(p), nil
}

func (c *writeCounter) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *writeCounter) Close() error                     { return nil }
func (c *writeCounter) SetWriteDeadline(time.Time) error { return nil }

func (c *writeCounter) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// TestSessionCoalescesQueuedFrames: frames logged while a session is
// blocked on its socket go out in one write once it is free, in stream
// order — not one write per logged batch.
func TestSessionCoalescesQueuedFrames(t *testing.T) {
	cfg := testConfig(1)
	cfg.DataDir = t.TempDir()
	e, err := serve.New(cfg, fakeFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	srv, err := NewServer(e, ServerConfig{Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	node := e.Nodes()[0]
	update := func(i int) {
		if err := e.Update(node, vector.Of(float64(i%9+1), 2), false); err != nil {
			t.Fatal(err)
		}
	}
	update(0)

	pos := e.ReplPositions()
	_, run, err := srv.Subscribe(e.Epoch(), &wire.ReplSubscribe{Shards: 1, Pos: pos})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	c := &writeCounter{gate: gate, held: make(chan struct{}), closed: make(chan struct{})}
	released := false
	t.Cleanup(func() {
		if !released {
			close(gate)
		}
		close(c.closed)
	})
	go run(c, 1, nil)

	// The first frame's write blocks; the next ones queue behind it.
	update(1)
	select {
	case <-c.held:
	case <-time.After(5 * time.Second):
		t.Fatal("the session never wrote the first frame")
	}
	const queued = 50
	for i := 0; i < queued; i++ {
		update(2 + i)
	}
	close(gate)
	released = true

	deadline := time.Now().Add(5 * time.Second)
	for len(c.snapshot()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the queued frames were never written")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a write per frame would show by now
	writes := c.snapshot()
	if len(writes) != 2 {
		t.Fatalf("%d frames queued behind a blocked write went out in %d writes; want 1", queued, len(writes)-1)
	}

	wc := arrived(t, bytes.Join(writes, nil))
	want := pos[0].Pos
	for want < pos[0].Pos+1+queued {
		f := next(t, wc).Records
		if f.Shard != 0 || f.Seg != pos[0].Seg || f.Pos != want {
			t.Fatalf("frame at shard %d seg %d pos %d; want shard 0 seg %d pos %d", f.Shard, f.Seg, f.Pos, pos[0].Seg, want)
		}
		want += uint64(len(f.Recs))
	}
}

// TestSessionKeepsItsBufferUnderBacklog: a backlog larger than one
// round goes out in several writes of at most keepOut bytes, and every
// round leaves the session its buffer for the next one instead of a
// buffer flush drops as oversized, to be regrown from nothing.
func TestSessionKeepsItsBufferUnderBacklog(t *testing.T) {
	const events = 3000
	c := &writeCounter{closed: make(chan struct{})}
	ss := &session{
		ch:   make(chan event, events),
		dead: make(chan struct{}),
		next: []serve.ReplPos{{Seg: 1}},
		c:    c,
	}
	for i := 0; i < events; i++ {
		ss.ch <- event{kind: evRecords, seg: 1, pos: uint64(i), recs: []wal.Record{
			{Kind: wal.KindUpdate, Node: uint32(i % 4), Avail: []float64{float64(i%9 + 1), 2}},
		}}
	}
	for rounds := 1; len(ss.ch) > 0; rounds++ {
		if err := ss.sendQueued(<-ss.ch); err != nil {
			t.Fatal(err)
		}
		if cap(ss.out) == 0 || cap(ss.out) > keepOut {
			t.Fatalf("round %d left the session a buffer of capacity %d; want one within (0, %d]", rounds, cap(ss.out), keepOut)
		}
	}
	writes := c.snapshot()
	if len(writes) < 2 {
		t.Fatalf("%d queued events went out in %d writes; want a backlog split into rounds", events, len(writes))
	}
	for i, w := range writes {
		if len(w) > keepOut {
			t.Fatalf("write %d carried %d bytes; want at most %d", i, len(w), keepOut)
		}
	}
	wc := arrived(t, bytes.Join(writes, nil))
	for want := uint64(0); want < events; want++ {
		if f := next(t, wc).Records; f.Pos != want {
			t.Fatalf("frame at pos %d; want %d", f.Pos, want)
		}
	}
}
