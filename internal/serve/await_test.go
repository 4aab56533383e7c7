package serve

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

// The queued-writer tests drive one shard's write path by hand: the
// engine's idle tick never comes, so nothing serves a queued op but a
// spinning caller, a parker's last look, a holder's round and a kicked
// parker.

// seqSink records the last availability component of every applied
// update, in application order.
type seqSink struct {
	mu   sync.Mutex
	seqs []float64
}

func (k *seqSink) CaptureQuery(QueryRequest, *QueryResponse, error) {}

func (k *seqSink) CaptureMutations(_ int, recs []wal.Record) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, r := range recs {
		if r.Kind == wal.KindUpdate {
			k.seqs = append(k.seqs, r.Avail[len(r.Avail)-1])
		}
	}
}

func (k *seqSink) CaptureStats() CaptureStats { return CaptureStats{} }

func (k *seqSink) tail(n int) []float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return slices.Clone(k.seqs[max(0, len(k.seqs)-n):])
}

// awaitShard is a one-shard clocked engine of fake backends with a
// seqSink attached: its shard, the shard's backend and the sink.
func awaitShard(t *testing.T) (*Engine, *shard, *fakeBackend, *seqSink) {
	t.Helper()
	e, c := newClockedEngine(t, testConfig(1))
	sink := &seqSink{}
	e.SetCapture(sink)
	return e, e.shards[0], c.fakes[0], sink
}

// stall starts a round that holds s's combiner lock inside a protocol
// query until release, and returns once it provably holds it (the
// query op is queued directly, so an empty queue means a round took
// it). The round's own result arrives on reply. A test that fails
// first releases the round on cleanup, so the engine can close.
func stall(t *testing.T, s *shard, fb *fakeBackend) (release func(), reply chan opResult) {
	gate := make(chan struct{})
	release, reply = sync.OnceFunc(func() { close(gate) }), make(chan opResult, 1)
	t.Cleanup(release)
	s.mu.Lock()
	fb.gate = gate
	s.mu.Unlock()
	s.ops <- op{kind: opQuery, node: -1, demand: vector.Of(0, 0), k: 1, reply: reply}
	go s.serveQueued()
	for len(s.ops) > 0 {
		runtime.Gosched()
	}
	return release, reply
}

// hold takes s's combiner lock as a holder that serves nothing, and
// returns its release: a plain Unlock, which kicks nobody. A test that
// fails first releases it on cleanup, so the engine can close.
func hold(t *testing.T, s *shard) (release func()) {
	s.mu.Lock()
	release = sync.OnceFunc(s.mu.Unlock)
	t.Cleanup(release)
	return release
}

// queuedUpdate starts e.Update(id, (seq, seq)) on its own goroutine and
// returns once the call has queued its op behind the busy lock.
func queuedUpdate(e *Engine, s *shard, id GlobalID, seq float64) <-chan error {
	n := s.queued.Load()
	errc := make(chan error, 1)
	go func() { errc <- e.Update(id, vector.Of(seq, seq), false) }()
	for s.queued.Load() == n {
		runtime.Gosched()
	}
	return errc
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after 10s: %s", what)
		}
	}
}

// recv returns the value on c, failing the test after 10 s.
func recv[T any](t *testing.T, what string, c <-chan T) T {
	t.Helper()
	select {
	case v := <-c:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("still waiting after 10s: %s", what)
		panic("unreachable")
	}
}

// TestQueuedWriterServesTheQueue: a writer that finds ops queued and
// the lock free serves them and its own op itself, in FIFO order,
// without parking — and no kick comes to do it for it.
func TestQueuedWriterServesTheQueue(t *testing.T) {
	e, s, _, sink := awaitShard(t)
	node := e.Nodes()[0]
	replies := make([]chan opResult, 3)
	for i := range replies {
		replies[i] = make(chan opResult, 1)
		s.ops <- op{kind: opUpdate, node: node.Local(), avail: vector.Of(float64(i+1), float64(i+1)), reply: replies[i]}
	}
	// The writer runs on its own goroutine only so that a writer left
	// parked fails the test instead of hanging it.
	w := make(chan error, 1)
	go func() { w <- e.Update(node, vector.Of(4, 4), false) }()
	if err := recv(t, "the writer", w); err != nil {
		t.Fatal(err)
	}
	for i, r := range replies {
		select {
		case res := <-r:
			if res.err != nil {
				t.Fatalf("queued update %d: %v", i+1, res.err)
			}
		default:
			t.Fatalf("queued update %d unanswered when the writer behind it returned", i+1)
		}
	}
	if got := sink.tail(4); !slices.Equal(got, []float64{1, 2, 3, 4}) {
		t.Fatalf("updates applied in the order %v, want [1 2 3 4]", got)
	}
	if q, p := s.queued.Load(), s.parked.Load(); q != 1 || p != 0 {
		t.Fatalf("queued %d, parked %d; want 1 queued, 0 parked", q, p)
	}
}

// TestQueuedWriterSpinsThroughShortRound: a writer queued behind a
// round that ends well inside spinMax gets its result without parking,
// after the round's own op. The OS may still deschedule a spinner for
// longer than the bound on a loaded machine, so a trial that parks is
// retried; every one of 20 trials parking fails the test.
func TestQueuedWriterSpinsThroughShortRound(t *testing.T) {
	e, s, fb, sink := awaitShard(t)
	node := e.Nodes()[0]
	for trial := range 20 {
		seq := float64(trial + 1)
		release, qreply := stall(t, s, fb)
		parked := s.parked.Load()
		w := queuedUpdate(e, s, node, seq)
		release()
		// Block at once, so the woken round gets this core.
		if res := <-qreply; res.err != nil {
			t.Fatal(res.err)
		}
		if err := recv(t, "the queued update", w); err != nil {
			t.Fatal(err)
		}
		if got := sink.tail(1); !slices.Equal(got, []float64{seq}) {
			t.Fatalf("trial %d: last update applied %v, want %v", trial, got, seq)
		}
		if s.parked.Load() == parked {
			return
		}
		t.Logf("trial %d: the writer parked behind a short round", trial)
	}
	t.Fatal("the writer parked behind a short round in every trial")
}

// TestQueuedWriterParksBehindLongRound: a writer queued behind a round
// that outlasts spinMax parks, and is still served — by that round,
// which drains the queue before it publishes, and behind a locked call,
// which serves no queue, by itself once the call's unlock kicks it.
func TestQueuedWriterParksBehindLongRound(t *testing.T) {
	e, s, fb, sink := awaitShard(t)
	node := e.Nodes()[0]

	release, qreply := stall(t, s, fb)
	w := queuedUpdate(e, s, node, 1)
	waitFor(t, "the writer to park behind a stalled round", func() bool { return s.parked.Load() == 1 })
	release()
	if res := recv(t, "the stalled round", qreply); res.err != nil {
		t.Fatal(res.err)
	}
	if err := recv(t, "the parked update", w); err != nil {
		t.Fatal(err)
	}

	err := s.locked(func() error {
		w = queuedUpdate(e, s, node, 2)
		waitFor(t, "the writer to park behind a locked call", func() bool { return s.parked.Load() == 2 })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv(t, "the update parked behind a locked call", w); err != nil {
		t.Fatal(err)
	}
	if got := sink.tail(2); !slices.Equal(got, []float64{1, 2}) {
		t.Fatalf("updates applied in the order %v, want [1 2]", got)
	}
}

// TestQueuedWriterParksBehindSync: a writer queued while the holder
// waits on an fsync of the op-log parks at once, without spinning. The
// lock is let go with disk still set, so a writer that spun before it
// read disk would serve itself without parking; a parker's one last
// look may still serve it. Otherwise, once disk clears, the holder's
// unlock kicks the parked writer to serve its op.
func TestQueuedWriterParksBehindSync(t *testing.T) {
	e, s, _, sink := awaitShard(t)
	node := e.Nodes()[0]
	for trial := range 3 {
		seq := float64(trial + 1)
		release := hold(t, s)
		s.disk.Store(true)
		w := queuedUpdate(e, s, node, seq)
		release()
		waitFor(t, "the writer to park or return", func() bool { return s.parked.Load() == uint64(trial+1) || len(w) > 0 })
		if s.parked.Load() != uint64(trial+1) {
			t.Fatalf("trial %d: a writer queued behind a sync served itself instead of parking", trial)
		}
		s.mu.Lock()
		s.disk.Store(false)
		s.unlock()
		if err := recv(t, "the update parked behind a sync", w); err != nil {
			t.Fatal(err)
		}
		if got := sink.tail(1); !slices.Equal(got, []float64{seq}) {
			t.Fatalf("trial %d: last update applied %v, want %v", trial, got, seq)
		}
	}
}

// TestQueuedWriterLooksBeforeItParks: a writer that parks at once —
// disk set — with the lock free and an op queued ahead of it takes one
// last look before it sleeps, and serves both ops in FIFO order: no
// holder is left to kick it.
func TestQueuedWriterLooksBeforeItParks(t *testing.T) {
	e, s, _, sink := awaitShard(t)
	node := e.Nodes()[0]
	s.disk.Store(true)
	t.Cleanup(func() { s.disk.Store(false) })
	reply := make(chan opResult, 1)
	s.ops <- op{kind: opUpdate, node: node.Local(), avail: vector.Of(1, 1), reply: reply}
	w := make(chan error, 1)
	go func() { w <- e.Update(node, vector.Of(2, 2), false) }()
	if err := recv(t, "the writer", w); err != nil {
		t.Fatal(err)
	}
	if res := recv(t, "the op queued ahead of the writer", reply); res.err != nil {
		t.Fatal(res.err)
	}
	if got := sink.tail(2); !slices.Equal(got, []float64{1, 2}) {
		t.Fatalf("updates applied in the order %v, want [1 2]", got)
	}
	if p := s.parked.Load(); p != 1 {
		t.Fatalf("parked %d; want the writer parked", p)
	}
}

// TestQueuedWriterClosedWhileParked: a writer parked behind a holder
// gets ErrClosed when the shard halts with its op unserved.
func TestQueuedWriterClosedWhileParked(t *testing.T) {
	e, s, _, _ := awaitShard(t)
	release := hold(t, s)
	w := queuedUpdate(e, s, e.Nodes()[0], 1)
	waitFor(t, "the writer to park", func() bool { return s.parked.Load() == 1 })
	halted := make(chan error, 1)
	go func() { halted <- e.HaltShard(0) }()
	waitFor(t, "the halt to begin", s.halted.Load)
	// A plain Unlock kicks nobody: the halt takes the lock next, and its
	// unlock's kick finds the shard stopped.
	release()
	if err := recv(t, "the halt", halted); err != nil {
		t.Fatal(err)
	}
	if err := recv(t, "the parked update", w); !errors.Is(err, ErrClosed) {
		t.Fatalf("parked update after the halt: %v, want ErrClosed", err)
	}
}
