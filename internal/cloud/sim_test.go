package cloud

import (
	"testing"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/sim"
	"pidcan/internal/task"
	"pidcan/internal/trace"
	"pidcan/internal/vector"
)

// smallConfig returns a fast test configuration: 96 nodes, 2
// simulated hours, arrivals sped up so a few hundred tasks flow.
func smallConfig(p Protocol, lambda float64, seed uint64) Config {
	cfg := DefaultConfig(p, 96, lambda)
	cfg.Duration = 2 * sim.Hour
	cfg.Seed = seed
	cfg.MeanInterarrivalSec = 600
	cfg.MeanDurationSec = 600
	return cfg
}

func runSmall(t *testing.T, cfg Config) (*Simulation, *Result) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return s, res
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(HIDCAN, 100, 0.5).Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	bad := []Config{
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.Protocol = Protocol(99); return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.Nodes = 1; return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.Duration = 0; return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.Lambda = 0; return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.ResultsWanted = 0; return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.QueryRetries = -1; return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.SnapshotEvery = 0; return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.Churn.Degree = 2; return c }(),
		func() Config { c := DefaultConfig(HIDCAN, 100, 0.5); c.Core.L = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestProtocolNamesAndAll(t *testing.T) {
	want := map[Protocol]string{
		HIDCAN: "HID-CAN", SIDCAN: "SID-CAN", HIDCANSoS: "HID-CAN+SoS",
		SIDCANSoS: "SID-CAN+SoS", SIDCANVD: "SID-CAN+VD",
		Newscast: "Newscast", KHDNCAN: "KHDN-CAN",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), name)
		}
	}
	if Protocol(42).String() == "" {
		t.Error("unknown protocol string empty")
	}
	if len(AllProtocols()) != 7 {
		t.Errorf("AllProtocols = %v", AllProtocols())
	}
	for _, s := range []SelectionPolicy{BestFit, FirstFit, MaxShare, SelectionPolicy(9)} {
		if s.String() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestRunHIDCAN(t *testing.T) {
	_, res := runSmall(t, smallConfig(HIDCAN, 0.25, 1))
	rec := res.Rec
	if rec.Generated == 0 {
		t.Fatal("no tasks generated")
	}
	if rec.Finished == 0 {
		t.Error("no tasks finished")
	}
	if rec.MessageTotal() == 0 {
		t.Error("no messages sent")
	}
	if rec.MessageCount(metrics.MsgStateUpdate) == 0 {
		t.Error("no state updates")
	}
	if rec.MessageCount(metrics.MsgIndexDiffusion) == 0 {
		t.Error("no index diffusion")
	}
	if res.Protocol != "HID-CAN" {
		t.Errorf("Protocol = %q", res.Protocol)
	}
	if len(rec.Series()) < 2 {
		t.Error("too few snapshots")
	}
	if res.Events == 0 || res.FinalNodes != 96 {
		t.Errorf("Events=%d FinalNodes=%d", res.Events, res.FinalNodes)
	}
}

func TestRunEveryProtocol(t *testing.T) {
	for _, p := range AllProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			_, res := runSmall(t, smallConfig(p, 0.25, 2))
			if res.Rec.Generated == 0 {
				t.Fatal("no tasks generated")
			}
			if res.Rec.MessageTotal() == 0 {
				t.Error("no messages")
			}
			// At λ=0.25 every protocol should finish some tasks.
			if res.Rec.Finished == 0 {
				t.Errorf("%s finished no tasks (generated %d, failed %d)",
					p, res.Rec.Generated, res.Rec.Failed)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, int64, int64) {
		_, res := runSmall(t, smallConfig(HIDCAN, 0.5, 7))
		r := res.Rec
		return r.Generated, r.Finished, r.Failed, r.MessageTotal()
	}
	g1, f1, x1, m1 := run()
	g2, f2, x2, m2 := run()
	if g1 != g2 || f1 != f2 || x1 != x2 || m1 != m2 {
		t.Errorf("same seed diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			g1, f1, x1, m1, g2, f2, x2, m2)
	}
}

func TestSeedsDiffer(t *testing.T) {
	_, r1 := runSmall(t, smallConfig(HIDCAN, 0.5, 1))
	_, r2 := runSmall(t, smallConfig(HIDCAN, 0.5, 99))
	if r1.Rec.Generated == r2.Rec.Generated && r1.Rec.MessageTotal() == r2.Rec.MessageTotal() {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestChurnRun(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.5, 3)
	cfg.Churn.Degree = 0.25
	s, res := runSmall(t, cfg)
	if res.Rec.Lost == 0 {
		t.Log("note: churn lost no tasks (possible at small scale)")
	}
	if res.Rec.MessageCount(metrics.MsgMaintenance) == 0 {
		t.Error("churn produced no maintenance traffic")
	}
	// Population stays near the initial size (balanced churn).
	if res.FinalNodes < 48 || res.FinalNodes > 192 {
		t.Errorf("population drifted to %d", res.FinalNodes)
	}
	_ = s
}

func TestHeavyChurnRun(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.5, 4)
	cfg.Churn.Degree = 0.95
	_, res := runSmall(t, cfg)
	if res.Rec.Generated == 0 {
		t.Fatal("no tasks under heavy churn")
	}
}

func TestNewscastChurnRun(t *testing.T) {
	cfg := smallConfig(Newscast, 0.5, 5)
	cfg.Churn.Degree = 0.5
	_, res := runSmall(t, cfg)
	if res.Rec.Generated == 0 {
		t.Fatal("no tasks generated")
	}
}

func TestDispatchAndDiluteAblation(t *testing.T) {
	// The ablation turns host-side Inequality-(2) enforcement off:
	// tasks land regardless and contention shows up as diluted
	// shares, not rejects.
	cfg := smallConfig(HIDCAN, 0.5, 6)
	cfg.ValidatePlacement = false
	_, res := runSmall(t, cfg)
	if res.Rec.Generated == 0 {
		t.Fatal("no tasks generated")
	}
	if res.Rec.PlacementRejects != 0 {
		t.Error("dispatch mode must never reject")
	}
}

func TestSelectionPolicies(t *testing.T) {
	for _, pol := range []SelectionPolicy{BestFit, FirstFit, MaxShare} {
		cfg := smallConfig(HIDCAN, 0.25, 8)
		cfg.Selection = pol
		_, res := runSmall(t, cfg)
		if res.Rec.Finished == 0 {
			t.Errorf("%v finished no tasks", pol)
		}
	}
}

// Qualitative shape check (paper Fig. 7(b)): at a small demand ratio
// HID-CAN's failed-task ratio stays below Newscast's. This needs a
// population large enough for the index structure to exist (the
// paper runs n=2000; below a few hundred nodes the 2^k link
// hierarchy degenerates), so it runs at n=500 and is skipped in
// short mode.
func TestHIDBeatsNewscastOnFRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(p Protocol) *Result {
		cfg := DefaultConfig(p, 500, 0.25)
		cfg.Duration = 4 * sim.Hour
		cfg.Seed = 11
		_, res := runSmall(t, cfg)
		return res
	}
	hid := run(HIDCAN)
	news := run(Newscast)
	if hid.Rec.FRatio() >= news.Rec.FRatio() {
		t.Errorf("F-Ratio: HID %.3f not better than Newscast %.3f",
			hid.Rec.FRatio(), news.Rec.FRatio())
	}
	t.Logf("F-Ratio: HID %.4f vs Newscast %.4f", hid.Rec.FRatio(), news.Rec.FRatio())
}

func TestMeanQueryHopsRecorded(t *testing.T) {
	_, res := runSmall(t, smallConfig(HIDCAN, 0.5, 12))
	if res.Rec.Queries() == 0 {
		t.Fatal("no queries recorded")
	}
	if res.Rec.MeanQueryHops() <= 0 {
		t.Error("zero mean query hops")
	}
}

func TestCheckpointRecovery(t *testing.T) {
	// Under churn with checkpointing on, killed tasks are recovered
	// (re-queued) instead of lost; some of them finish.
	base := smallConfig(HIDCAN, 0.25, 21)
	base.Churn.Degree = 0.5
	base.Duration = 3 * sim.Hour

	noCkpt := base
	_, plain := runSmall(t, noCkpt)

	withCkpt := base
	withCkpt.CheckpointSec = 300
	_, ckpt := runSmall(t, withCkpt)

	if plain.Rec.Recovered != 0 {
		t.Error("recovery happened without checkpointing")
	}
	if plain.Rec.Lost == 0 {
		t.Skip("churn killed no running tasks at this scale/seed")
	}
	if ckpt.Rec.Recovered == 0 {
		t.Error("checkpointing recovered nothing under churn")
	}
	// Recovery strictly reduces losses.
	if ckpt.Rec.Lost >= plain.Rec.Lost {
		t.Errorf("lost with checkpointing %d >= without %d", ckpt.Rec.Lost, plain.Rec.Lost)
	}
	t.Logf("lost: plain=%d ckpt=%d recovered=%d finished: plain=%d ckpt=%d",
		plain.Rec.Lost, ckpt.Rec.Lost, ckpt.Rec.Recovered, plain.Rec.Finished, ckpt.Rec.Finished)
}

func TestCheckpointConfigValidation(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.25, 1)
	cfg.CheckpointSec = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative CheckpointSec validated")
	}
}

func TestUnplacedAccounting(t *testing.T) {
	// Under validation with a loaded system, some tasks end unplaced;
	// they must never be double-counted as failed.
	cfg := smallConfig(HIDCAN, 0.5, 22)
	_, res := runSmall(t, cfg)
	r := res.Rec
	if r.Accounted() > r.Generated {
		t.Errorf("accounted %d > generated %d", r.Accounted(), r.Generated)
	}
	if r.UnplacedRatio() < 0 || r.UnplacedRatio() > 1 {
		t.Errorf("UnplacedRatio = %v", r.UnplacedRatio())
	}
}

func TestAggregatedCMaxRun(t *testing.T) {
	cfg := smallConfig(HIDCANSoS, 0.5, 31)
	cfg.AggregatedCMax = true
	_, res := runSmall(t, cfg)
	if res.Rec.Generated == 0 {
		t.Fatal("no tasks generated")
	}
	if res.Rec.MessageCount(metrics.MsgAggregate) == 0 {
		t.Error("aggregation sent no messages")
	}
	// Aggregation on a non-PID-CAN protocol is ignored gracefully.
	cfg2 := smallConfig(Newscast, 0.5, 31)
	cfg2.AggregatedCMax = true
	_, res2 := runSmall(t, cfg2)
	if res2.Rec.MessageCount(metrics.MsgAggregate) != 0 {
		t.Error("aggregation ran without an overlay protocol")
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.25, 41)
	cfg.TraceCapacity = 4096
	s, res := runSmall(t, cfg)
	tr := s.Trace()
	if !tr.Enabled() {
		t.Fatal("trace disabled")
	}
	if tr.Count(trace.TaskSubmitted) != res.Rec.Generated {
		t.Errorf("trace submitted %d != generated %d", tr.Count(trace.TaskSubmitted), res.Rec.Generated)
	}
	if tr.Count(trace.TaskFinished) != res.Rec.Finished {
		t.Errorf("trace finished %d != %d", tr.Count(trace.TaskFinished), res.Rec.Finished)
	}
	if tr.Count(trace.QueryResolved) != res.Rec.Queries() {
		t.Errorf("trace queries %d != %d", tr.Count(trace.QueryResolved), res.Rec.Queries())
	}
	// A finished task's retained history is coherent.
	fin := tr.Filter(trace.TaskFinished)
	if len(fin) > 0 {
		hist := tr.TaskHistory(fin[len(fin)-1].Task)
		if len(hist) < 2 {
			t.Errorf("finished task history too short: %+v", hist)
		}
	}
	// Tracing off by default.
	cfg2 := smallConfig(HIDCAN, 0.25, 41)
	s2, _ := runSmall(t, cfg2)
	if s2.Trace().Enabled() {
		t.Error("trace enabled without capacity")
	}
}

func TestKillEdgeCases(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.25, 51)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown node: no-op.
	s.kill(9999)
	// Double kill: no-op.
	s.kill(3)
	s.kill(3)
	if s.Alive(3) {
		t.Error("node still alive after kill")
	}
	if s.Overlay().Size() != cfg.Nodes-1 {
		t.Errorf("overlay size = %d", s.Overlay().Size())
	}
	// churnLeave never shrinks below 2 nodes.
	for i := 0; i < cfg.Nodes+10; i++ {
		s.churnLeave()
	}
	if len(s.AliveNodes()) < 2 {
		t.Errorf("population fell to %d", len(s.AliveNodes()))
	}
}

func TestChurnJoinGrowsPopulation(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.25, 52)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := len(s.AliveNodes())
	s.churnJoin()
	s.churnJoin()
	if got := len(s.AliveNodes()); got != before+2 {
		t.Errorf("population = %d, want %d", got, before+2)
	}
	if err := s.Overlay().Validate(); err != nil {
		t.Fatal(err)
	}
	// New nodes participate in discovery state.
	if !s.Alive(overlay.NodeID(before)) {
		t.Error("joined node not alive")
	}
}

func TestAvailabilityOfUnknownNode(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.25, 53)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := s.Availability(overlay.NodeID(9999))
	if !a.Equal(vector.New(task.Dims)) {
		t.Errorf("unknown availability = %v", a)
	}
	if s.CMax().Dim() != task.Dims {
		t.Error("CMax dims wrong")
	}
}

func TestSendFromDeadNodeDiscarded(t *testing.T) {
	cfg := smallConfig(HIDCAN, 0.25, 54)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.kill(5)
	before := s.Recorder().MessageTotal()
	s.Send(5, 6, metrics.MsgPlacement, 100, func() { t.Error("delivered from dead sender") }, nil)
	s.SendPath(5, []overlay.NodeID{6}, metrics.MsgPlacement, 100, func() { t.Error("path-delivered from dead sender") }, nil)
	s.Engine().Run(s.Engine().Now() + sim.Minute)
	if s.Recorder().MessageTotal() != before {
		t.Error("dead sender's messages were counted")
	}
}
