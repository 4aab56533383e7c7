package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"pidcan/internal/serve/wal"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// The tests below pin the serving clock contract (serve.go): simulated
// time follows wall time, moves on the idle tick only, and nothing
// else in the engine steps the backend.

// TestClockWritesDoNotStep: acknowledged updates, joins and leaves
// with no tick delivered leave the backend clock where Warmup put it.
func TestClockWritesDoNotStep(t *testing.T) {
	cfg := testConfig(1)
	cfg.Warmup = 3 * sim.Second
	e, clk := newClockedEngine(t, cfg)
	f := clk.fakes[0]
	nodes := e.Nodes()
	for i := 0; i < 40; i++ {
		if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i%9), 5), i%2 == 0); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			id, err := e.Join(vector.Of(2, 2))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Leave(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	clk.settle(0)
	if len(f.steps) != 1 || f.steps[0] != cfg.Warmup {
		t.Fatalf("backend stepped %v; want the %v warmup step only", f.steps, cfg.Warmup)
	}
	if f.now != cfg.Warmup {
		t.Fatalf("backend clock at %v after 60 acked writes and no tick, want %v", f.now, cfg.Warmup)
	}
	snap, _ := e.Snapshot(0)
	if snap.Taken != cfg.Warmup || e.Stats().Shards[0].SimNow != cfg.Warmup {
		t.Fatalf("snapshot taken at %v, stats sim_now %v, want %v", snap.Taken, e.Stats().Shards[0].SimNow, cfg.Warmup)
	}
}

// TestClockTickFollowsWallTime: one tick 350ms of wall time after the
// shard started advances the backend exactly 350ms, in slices of at
// most StepQuantum, and republishes the snapshot under the new clock.
func TestClockTickFollowsWallTime(t *testing.T) {
	cfg := testConfig(2)
	cfg.Warmup = 3 * sim.Second
	cfg.StepQuantum = 100 * sim.Millisecond
	e, clk := newClockedEngine(t, cfg)
	clk.advance(350 * time.Millisecond)
	want := cfg.Warmup + 350*sim.Millisecond
	for i, f := range clk.fakes {
		got := f.steps[1:] // [0] is the warmup
		if len(got) != 4 || got[0] != cfg.StepQuantum || got[1] != cfg.StepQuantum ||
			got[2] != cfg.StepQuantum || got[3] != 50*sim.Millisecond {
			t.Fatalf("shard %d stepped %v, want 3 x 100ms + 50ms", i, got)
		}
		if f.now != want {
			t.Fatalf("shard %d clock at %v, want %v", i, f.now, want)
		}
		if snap, _ := e.Snapshot(i); snap.Taken != want {
			t.Fatalf("shard %d snapshot taken at %v, want %v", i, snap.Taken, want)
		}
	}
	// A second tick at the same wall instant owes nothing.
	clk.advance(0)
	if n := len(clk.fakes[0].steps); n != 5 {
		t.Fatalf("tick with nothing owed stepped the backend: %v", clk.fakes[0].steps)
	}
}

// TestClockCatchUpYieldsToQueuedOps: a tick that owes several slices
// and finds an op queued after a slice ends there, and the op's writer
// serves it; a later tick steps the rest.
func TestClockCatchUpYieldsToQueuedOps(t *testing.T) {
	cfg := testConfig(1)
	cfg.StepQuantum = 100 * sim.Millisecond
	e, clk := newClockedEngine(t, cfg)
	f, s := clk.fakes[0], e.shards[0]
	var w <-chan error
	f.onStep = func() { // under the combiner lock, mid catch-up
		if len(f.steps) == 1 {
			// queued is bumped before the op is sent: wait for the op.
			w = queuedUpdate(e, s, Global(0, 1), 7)
			for len(s.ops) == 0 {
				runtime.Gosched()
			}
		}
	}
	clk.advance(500 * time.Millisecond)
	if err := <-w; err != nil {
		t.Fatal(err)
	}
	clk.settle(0)
	if len(f.steps) != 1 || f.now != 100*sim.Millisecond {
		t.Fatalf("write acked after steps %v (clock %v); want it served after the first of five slices", f.steps, f.now)
	}
	snap, _ := e.Snapshot(0)
	if !snap.Records[1].Avail.Equal(vector.Of(7, 7)) {
		t.Fatalf("acked write not published: %+v", snap.Records[1])
	}
	clk.advance(0) // same wall instant: the next tick pays what is owed
	if len(f.steps) != 5 || f.now != 500*sim.Millisecond {
		t.Fatalf("after the next tick: steps %v, clock %v; want five 100ms slices, 500ms", f.steps, f.now)
	}
}

// TestClockCatchUpYieldsToLockWaiters: a tick that owes several slices
// and finds a caller waiting for the combiner lock after a slice — a
// follower's apply — lets it in first; a later tick steps the rest.
func TestClockCatchUpYieldsToLockWaiters(t *testing.T) {
	cfg := testConfig(1)
	cfg.DataDir = t.TempDir()
	cfg.Follower = true
	cfg.StepQuantum = 100 * sim.Millisecond
	e, clk := newClockedEngine(t, cfg)
	f, s := clk.fakes[0], e.shards[0]
	applied := make(chan error, 1)
	f.onStep = func() { // under the combiner lock, mid catch-up
		if len(f.steps) != 1 {
			return
		}
		go func() {
			applied <- e.ReplApply(0, e.Epoch(), []wal.Record{{Kind: wal.KindUpdate, Node: 1, Avail: []float64{7, 7}}})
		}()
		for s.waiters.Load() == 0 && len(applied) == 0 {
			runtime.Gosched()
		}
	}
	clk.advance(500 * time.Millisecond)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	clk.settle(0)
	if len(f.steps) != 1 || f.now != 100*sim.Millisecond {
		t.Fatalf("frame applied after steps %v (clock %v); want it applied after the first of five slices", f.steps, f.now)
	}
	snap, _ := e.Snapshot(0)
	if snap.Taken != 100*sim.Millisecond || !snap.Records[1].Avail.Equal(vector.Of(7, 7)) {
		t.Fatalf("snapshot taken at %v holds %+v; want the applied frame at 100ms", snap.Taken, snap.Records[1])
	}
	clk.advance(0) // same wall instant: the next tick pays what is owed
	if len(f.steps) != 5 || f.now != 500*sim.Millisecond {
		t.Fatalf("after the next tick: steps %v, clock %v; want five 100ms slices, 500ms", f.steps, f.now)
	}
}

// TestClockBackendAheadStepsNothing: a protocol query runs the
// backend's clock ahead of wall time (Cluster.Query drives the
// simulation until the query resolves); ticks then step nothing —
// never a negative amount — until wall time has caught up.
func TestClockBackendAheadStepsNothing(t *testing.T) {
	e, clk := newClockedEngine(t, testConfig(1))
	f := clk.fakes[0]
	f.queryRuns = 2 * sim.Second
	if _, err := e.Query(QueryRequest{Demand: vector.Of(0, 0), Consistent: true}); err != nil {
		t.Fatal(err)
	}
	clk.advance(350 * time.Millisecond)
	if len(f.steps) != 0 || f.now != 2*sim.Second {
		t.Fatalf("backend ahead of wall time was stepped: %v, clock %v", f.steps, f.now)
	}
	clk.advance(2 * time.Second) // wall 2.35s: 350ms owed
	if len(f.steps) != 1 || f.steps[0] != 350*sim.Millisecond || f.now != 2350*sim.Millisecond {
		t.Fatalf("steps %v, clock %v; want one 350ms step to 2.35s", f.steps, f.now)
	}
}

// TestClockRecoveryAndFollowerApplyStepNothing: replaying a logged
// history — through a follower's ReplApply and at startup recovery
// (log replay, then checkpoint restore + log tail) — advances no
// simulated time.
func TestClockRecoveryAndFollowerApplyStepNothing(t *testing.T) {
	cfg := testConfig(2)
	cfg.DataDir = t.TempDir()
	history := func(e *Engine) {
		t.Helper()
		nodes := e.Nodes()
		for i := 0; i < 30; i++ {
			if err := e.Update(nodes[i%len(nodes)], vector.Of(float64(i%9), 4), i%3 == 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Join(vector.Of(3, 3)); err != nil {
			t.Fatal(err)
		}
		if err := e.Migrate(nodes[0], 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Leave(nodes[1]); err != nil {
			t.Fatal(err)
		}
	}
	assertNoSteps := func(clk *handClock, label string) {
		t.Helper()
		for i, f := range clk.fakes {
			clk.settle(i)
			if len(f.steps) != 0 || f.now != 0 {
				t.Fatalf("%s stepped shard %d's backend: %v (clock %v)", label, i, f.steps, f.now)
			}
		}
	}

	e, _ := newClockedEngine(t, cfg)
	history(e)
	pre := fingerprint(t, e, cfg.Shards)
	e.close(false) // crash: no checkpoint, the whole history is log

	// Follower apply: a fresh follower fed the crashed primary's log.
	fcfg := testConfig(2)
	fcfg.DataDir = t.TempDir()
	fcfg.Follower = true
	fe, fclk := newClockedEngine(t, fcfg)
	for i := 0; i < cfg.Shards; i++ {
		_, recs, _, _, err := wal.ReadSegmentInfo(wal.SegmentPath(e.shardDir(i), 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := fe.ReplApply(i, fe.Epoch(), recs); err != nil {
			t.Fatal(err)
		}
	}
	assertNoSteps(fclk, "follower apply")
	assertSameState(t, pre, fingerprint(t, fe, cfg.Shards), "follower")

	// Recovery by log replay.
	re, clk := newClockedEngine(t, cfg)
	assertNoSteps(clk, "log replay")
	assertSameState(t, pre, fingerprint(t, re, cfg.Shards), "log replay")

	// Recovery by checkpoint restore plus a log tail.
	if _, err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	history(re)
	pre = fingerprint(t, re, cfg.Shards)
	re.close(false)
	re2, clk2 := newClockedEngine(t, cfg)
	assertNoSteps(clk2, "checkpoint restore + tail")
	assertSameState(t, pre, fingerprint(t, re2, cfg.Shards), "checkpoint restore + tail")
}

// TestEngineTicksEveryShard: the engine's own idle tick, with no hand
// clock, moves every shard's clock past Warmup, and keeps moving the
// other shards' after one of them halts.
func TestEngineTicksEveryShard(t *testing.T) {
	cfg := testConfig(4)
	cfg.Warmup = 3 * sim.Second
	cfg.FlushInterval = time.Millisecond
	e := newTestEngine(t, cfg)
	simNow := func(i int) sim.Time { return e.Stats().Shards[i].SimNow }
	for i := range cfg.Shards {
		waitFor(t, fmt.Sprintf("shard %d's clock to pass Warmup", i), func() bool { return simNow(i) > cfg.Warmup })
	}
	if err := e.HaltShard(1); err != nil {
		t.Fatal(err)
	}
	halted := simNow(1)
	for _, i := range []int{0, 2, 3} {
		from := simNow(i)
		waitFor(t, fmt.Sprintf("shard %d's clock to move after shard 1 halted", i), func() bool { return simNow(i) > from })
	}
	if now := simNow(1); now != halted {
		t.Fatalf("halted shard 1's clock moved from %v to %v", halted, now)
	}
}

// TestEngineRunsNoGoroutinePerShard: an engine of 8 shards adds as
// many goroutines as an engine of 1.
func TestEngineRunsNoGoroutinePerShard(t *testing.T) {
	// Goroutines that are done may not have exited yet (New's build
	// goroutines, an earlier test's closed engines): count the fewest
	// seen over a few milliseconds, before New as after it.
	settled := func() int {
		n := runtime.NumGoroutine()
		for range 50 {
			time.Sleep(100 * time.Microsecond)
			n = min(n, runtime.NumGoroutine())
		}
		return n
	}
	added := func(shards int) int {
		before := settled()
		e, err := New(testConfig(shards), fakeFactory)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		return settled() - before
	}
	if one, eight := added(1), added(8); one != eight {
		t.Fatalf("an engine of 1 shard adds %d goroutines, one of 8 shards %d", one, eight)
	}
}
