package aggregate

import (
	"testing"

	"pidcan/internal/overlay"
	"pidcan/internal/prototest"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// capsFor assigns deterministic capacities: node i gets (i+1, 2(i+1)).
func capsFor(id overlay.NodeID) vector.Vec {
	f := float64(id + 1)
	return vector.Of(f, 2*f)
}

func newEstimator(t *testing.T, n int, seed uint64) (*prototest.Env, *Estimator) {
	t.Helper()
	env := prototest.New(2, n, vector.Of(1000, 1000), seed)
	e, err := New(env, capsFor, Default())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	return env, e
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := []Config{
		{Cycle: 0, RestartEvery: sim.Hour},
		{Cycle: sim.Second, RestartEvery: 0},
		{Cycle: sim.Hour, RestartEvery: sim.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
	env := prototest.New(2, 4, vector.Of(1, 1), 1)
	if _, err := New(env, capsFor, Config{}); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestConvergesToGlobalMax(t *testing.T) {
	// Gossip over adjacent overlay neighbors spreads the maximum in
	// O(network diameter) cycles; keep the epoch long enough that no
	// reset interrupts convergence during the test window.
	env := prototest.New(2, 64, vector.Of(1000, 1000), 1)
	cfg := Config{Cycle: 100 * sim.Second, RestartEvery: 24 * sim.Hour}
	e, err := New(env, capsFor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	// True max: node 63 → (64, 128).
	want := vector.Of(64, 128)
	// Before gossip, each node only knows itself.
	if e.Estimate(0).Equal(want) {
		t.Fatal("estimate converged before any gossip")
	}
	env.Eng.Run(40 * 100 * sim.Second)
	converged := 0
	for _, id := range env.AliveNodes() {
		if e.Estimate(id).Equal(want) {
			converged++
		}
	}
	if converged < 58 {
		t.Errorf("only %d/64 nodes converged to the global max", converged)
	}
}

func TestEstimateNeverExceedsTrueMax(t *testing.T) {
	env, e := newEstimator(t, 32, 2)
	env.Eng.Run(10 * 400 * sim.Second)
	want := vector.Of(32, 64)
	for _, id := range env.AliveNodes() {
		if !want.Dominates(e.Estimate(id)) {
			t.Errorf("estimate %v exceeds true max %v", e.Estimate(id), want)
		}
		if !e.Estimate(id).Dominates(capsFor(id)) {
			t.Errorf("estimate %v below own capacity", e.Estimate(id))
		}
	}
}

func TestEpochRestartForgetsDepartedMax(t *testing.T) {
	env := prototest.New(2, 32, vector.Of(1000, 1000), 3)
	cfg := Config{Cycle: 100 * sim.Second, RestartEvery: 2 * sim.Hour}
	e, err := New(env, capsFor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	env.Eng.Run(40 * 100 * sim.Second) // converge within the epoch
	rich := overlay.NodeID(31)         // holds the max (32, 64)
	if !e.Estimate(0).Equal(vector.Of(32, 64)) {
		t.Fatalf("did not converge before churn: %v", e.Estimate(0))
	}
	env.Kill(rich)
	e.NodeLeft(rich)
	// After at least one full epoch plus reconvergence, the departed
	// maximum must be forgotten: new max is node 30 → (31, 62).
	env.Eng.Run(env.Eng.Now() + 2*2*sim.Hour + 40*100*sim.Second)
	for _, id := range env.AliveNodes() {
		est := e.Estimate(id)
		if est[0] > 31 || est[1] > 62 {
			t.Fatalf("node %d still remembers departed max: %v", id, est)
		}
	}
}

func TestNodeJoinedParticipates(t *testing.T) {
	env, e := newEstimator(t, 16, 4)
	env.Eng.Run(10 * 400 * sim.Second)
	if id, err := env.Join(); err != nil || id != 16 {
		t.Fatalf("joined %d, %v; want node 16", id, err)
	}
	e.NodeJoined(16)
	env.Eng.Run(env.Eng.Now() + 10*400*sim.Second)
	if est := e.Estimate(16); !est.Dominates(vector.Of(16, 32)) {
		t.Errorf("joiner estimate %v did not absorb the network max", est)
	}
	// Idempotent join, clean leave.
	e.NodeJoined(16)
	env.Kill(16)
	e.NodeLeft(16)
	if e.Estimate(16) != nil {
		t.Error("estimate survived NodeLeft")
	}
	e.NodeLeft(16) // idempotent
}

func TestMessagesCounted(t *testing.T) {
	env, _ := newEstimator(t, 32, 5)
	env.Eng.Run(5 * 400 * sim.Second)
	if env.Rec.MessageTotal() == 0 {
		t.Error("aggregation sent no messages")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() vector.Vec {
		env, e := newEstimator(t, 32, 7)
		env.Eng.Run(6 * 400 * sim.Second)
		return e.Estimate(5)
	}
	if !run().Equal(run()) {
		t.Error("equal seeds diverged")
	}
}
