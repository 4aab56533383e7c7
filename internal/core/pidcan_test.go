package core

import (
	"testing"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/prototest"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

func testEnv(t testing.TB, dim, n int, seed uint64) *prototest.Env {
	t.Helper()
	cmax := vector.Uniform(dim, 10)
	return prototest.New(dim, n, cmax, seed)
}

func newPIDCAN(t testing.TB, env *prototest.Env, cfg Config) *PIDCAN {
	t.Helper()
	p, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := Default()
	bad.L = 0
	if err := bad.Validate(); err == nil {
		t.Error("L=0 validated")
	}
	bad = Default()
	bad.StateCycle = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cycle validated")
	}
	bad = Default()
	bad.JumpListSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero jump list validated")
	}
	bad = Default()
	bad.Mode = DiffusionMode(9)
	if err := bad.Validate(); err == nil {
		t.Error("bad mode validated")
	}
	if _, err := New(prototest.New(2, 2, vector.Of(1, 1), 1), bad); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestProtocolNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Mode: Hopping}, "HID-CAN"},
		{Config{Mode: Spreading}, "SID-CAN"},
		{Config{Mode: Hopping, SoS: true}, "HID-CAN+SoS"},
		{Config{Mode: Spreading, VirtualDim: true}, "SID-CAN+VD"},
		{Config{Mode: Spreading, SoS: true, VirtualDim: true}, "SID-CAN+SoS+VD"},
	}
	for _, c := range cases {
		if got := c.cfg.Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
	if Hopping.String() != "HID" || Spreading.String() != "SID" {
		t.Error("mode strings wrong")
	}
	if DiffusionMode(7).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestStateUpdateStoresAtDutyNode(t *testing.T) {
	env := testEnv(t, 2, 32, 1)
	p := newPIDCAN(t, env, Default())
	p.Start()

	// Give node 5 a distinctive availability and force a state
	// update immediately.
	env.Avail[5] = vector.Of(9, 3)
	p.stateUpdate(5)
	env.Eng.Run(5 * sim.Second) // deliver routed message

	duty := env.Net.OwnerAt(p.point(vector.Of(9, 3)))
	st := p.state(duty)
	if st == nil {
		t.Fatalf("duty node %d has no state", duty)
	}
	recs := st.cache.Records(env.Eng.Now())
	found := false
	for _, r := range recs {
		if r.Node == 5 && r.Avail.Equal(vector.Of(9, 3)) {
			found = true
		}
	}
	if !found {
		t.Errorf("record for node 5 not stored at duty node %d: %+v", duty, recs)
	}
	if env.Rec.MessageCount(metrics.MsgStateUpdate) == 0 {
		// Zero messages is legal only if node 5 is its own duty node.
		if duty != 5 {
			t.Error("no state-update messages counted")
		}
	}
}

func TestStateRecordExpires(t *testing.T) {
	env := testEnv(t, 2, 16, 2)
	cfg := Default()
	cfg.StateTTL = 100 * sim.Second
	p := newPIDCAN(t, env, cfg)
	env.Avail[3] = vector.Of(8, 8)
	duty := env.Net.OwnerAt(p.point(vector.Of(8, 8)))
	p.NodeJoined(3) // only the two participants get protocol state
	p.NodeJoined(duty)
	p.stateUpdate(3)
	env.Eng.Run(2 * sim.Second)
	st := p.state(duty)
	if st == nil || len(st.cache.Qualified(vector.Of(1, 1), env.Eng.Now(), 0)) == 0 {
		t.Fatal("record not stored")
	}
	if got := st.cache.Qualified(vector.Of(1, 1), env.Eng.Now()+200*sim.Second, 0); len(got) != 0 {
		t.Errorf("record survived TTL: %+v", got)
	}
}

// After HID diffusion, the origin's identifier must appear in the
// PILists of negative-direction nodes only.
func TestHoppingDiffusionReachesNegativeNodes(t *testing.T) {
	env := testEnv(t, 2, 64, 3)
	cfg := Default()
	p := newPIDCAN(t, env, cfg)
	p.Start()

	// Plant a record on a node with a high-coordinate zone so it has
	// room to diffuse negatively.
	var origin overlay.NodeID = -1
	for _, id := range env.Net.Nodes() {
		z, _ := env.Net.ZoneOf(id)
		if z.Hi[0] == 1 && z.Hi[1] == 1 {
			origin = id
			break
		}
	}
	if origin < 0 {
		t.Fatal("no corner node found")
	}
	p.state(origin).cache.Put(proto.Record{
		Node: origin, Avail: vector.Of(9, 9),
		Stored: 0, Expires: sim.Hour,
	})
	p.diffuse(origin)
	env.Eng.Run(10 * sim.Second)

	if env.Rec.MessageCount(metrics.MsgIndexDiffusion) == 0 {
		t.Fatal("no diffusion messages sent")
	}
	oz, _ := env.Net.ZoneOf(origin)
	reached := 0
	for _, id := range env.Net.Nodes() {
		if id == origin {
			continue
		}
		st := p.state(id)
		if _, ok := st.pilist[origin]; ok {
			reached++
			z, _ := env.Net.ZoneOf(id)
			if !z.IsNegativeDirectionOf(oz) {
				t.Errorf("index reached non-negative-direction node %d (zone %v vs %v)", id, z, oz)
			}
		}
	}
	if reached == 0 {
		t.Error("diffusion reached no nodes")
	}
	// Traffic bound: ω = L+L²+…+L^d = 6 for L=2, d=2.
	if got := env.Rec.MessageCount(metrics.MsgIndexDiffusion); got > 6 {
		t.Errorf("diffusion sent %d messages, bound 6", got)
	}
}

func TestSpreadingDiffusionBoundedTraffic(t *testing.T) {
	env := testEnv(t, 2, 64, 4)
	cfg := Default()
	cfg.Mode = Spreading
	p := newPIDCAN(t, env, cfg)
	p.Start()
	var origin overlay.NodeID = -1
	for _, id := range env.Net.Nodes() {
		z, _ := env.Net.ZoneOf(id)
		if z.Hi[0] == 1 && z.Hi[1] == 1 {
			origin = id
			break
		}
	}
	p.state(origin).cache.Put(proto.Record{
		Node: origin, Avail: vector.Of(9, 9), Stored: 0, Expires: sim.Hour,
	})
	p.diffuse(origin)
	env.Eng.Run(10 * sim.Second)
	// SID: at most L·d = 4 messages, no relays.
	if got := env.Rec.MessageCount(metrics.MsgIndexDiffusion); got == 0 || got > 4 {
		t.Errorf("SID diffusion sent %d messages, want 1..4", got)
	}
}

func TestDiffusionSkipsEmptyCache(t *testing.T) {
	env := testEnv(t, 2, 16, 5)
	p := newPIDCAN(t, env, Default())
	p.Start()
	p.diffuse(3) // cache empty
	env.Eng.Run(2 * sim.Second)
	if got := env.Rec.MessageCount(metrics.MsgIndexDiffusion); got != 0 {
		t.Errorf("empty-cache node diffused %d messages", got)
	}
}

// End-to-end: run the periodic machinery, then query and find a
// qualified node.
func runProtocol(t *testing.T, cfg Config, seed uint64) (*prototest.Env, *PIDCAN) {
	t.Helper()
	dim := 3
	env := testEnv(t, dim, 256, seed)
	// Scatter availabilities along the diagonal so records land on
	// many distinct duty zones and the index population is dense.
	nodes := env.Net.Nodes()
	for i, id := range nodes {
		f := 1 + 8*float64(i)/float64(len(nodes)) // 1 … 9
		env.Avail[id] = vector.Uniform(dim, f)
	}
	// Keep the index population dense at test scale: the diffusion
	// reach ω = L+…+L^d grows sharply with d, and the paper runs at
	// d=5; at d=3 a slightly larger L compensates.
	cfg.L = 3
	cfg.DiffusionCycle = 100 * sim.Second
	p := newPIDCAN(t, env, cfg)
	p.Start()
	env.Eng.Run(30 * sim.Minute) // several state/diffusion cycles
	return env, p
}

func queryOnce(t *testing.T, env *prototest.Env, p *PIDCAN, from overlay.NodeID, demand vector.Vec, k int) proto.QueryResult {
	t.Helper()
	var res proto.QueryResult
	got := false
	p.Query(from, demand, k, func(r proto.QueryResult) {
		res = r
		got = true
	})
	env.Eng.Run(env.Eng.Now() + 10*sim.Minute)
	if !got {
		t.Fatal("query never resolved")
	}
	return res
}

func TestQueryFindsQualifiedNode(t *testing.T) {
	env, p := runProtocol(t, Default(), 6)
	res := queryOnce(t, env, p, env.Net.Nodes()[1], vector.Uniform(3, 5), 3)
	if len(res.Candidates) == 0 {
		t.Fatal("query found no candidates")
	}
	for _, c := range res.Candidates {
		if !c.Avail.Dominates(vector.Uniform(3, 5)) {
			t.Errorf("unqualified candidate %+v", c)
		}
	}
	if res.Hops == 0 {
		t.Error("query consumed no messages")
	}
}

func TestQueryImpossibleDemand(t *testing.T) {
	env, p := runProtocol(t, Default(), 7)
	res := queryOnce(t, env, p, env.Net.Nodes()[1], vector.Uniform(3, 9.9), 2)
	if len(res.Candidates) != 0 {
		t.Errorf("impossible demand matched: %+v", res.Candidates)
	}
}

func TestQueryNeverReturnsRequester(t *testing.T) {
	env, p := runProtocol(t, Default(), 8)
	for _, id := range env.Net.Nodes()[:8] {
		res := queryOnce(t, env, p, id, vector.Uniform(3, 5), 4)
		for _, c := range res.Candidates {
			if c.Node == id {
				t.Errorf("query returned its own requester %d", id)
			}
		}
	}
}

func TestQuerySoS(t *testing.T) {
	cfg := Default()
	cfg.SoS = true
	env, p := runProtocol(t, cfg, 9)
	res := queryOnce(t, env, p, env.Net.Nodes()[2], vector.Uniform(3, 5), 2)
	for _, c := range res.Candidates {
		if !c.Avail.Dominates(vector.Uniform(3, 5)) {
			t.Errorf("SoS candidate does not dominate the original demand: %+v", c)
		}
	}
}

func TestQuerySpreadingMode(t *testing.T) {
	cfg := Default()
	cfg.Mode = Spreading
	env, p := runProtocol(t, cfg, 10)
	res := queryOnce(t, env, p, env.Net.Nodes()[3], vector.Uniform(3, 5), 2)
	_ = res // SID may or may not find given narrower diffusion; just must resolve
}

func TestQuerySkipDutyCacheAblation(t *testing.T) {
	// The paper-literal variant (no local duty-cache search) must
	// still resolve and only ever return qualified candidates.
	cfg := Default()
	cfg.SkipDutyCache = true
	env, p := runProtocol(t, cfg, 11)
	res := queryOnce(t, env, p, env.Net.Nodes()[1], vector.Uniform(3, 5), 3)
	for _, c := range res.Candidates {
		if !c.Avail.Dominates(vector.Uniform(3, 5)) {
			t.Errorf("unqualified candidate %+v", c)
		}
	}
}

func TestVirtualDimension(t *testing.T) {
	// VD mode: overlay has one extra dimension.
	cmax := vector.Of(10, 10)
	env := prototest.New(3, 48, cmax, 12)
	for i, id := range env.Net.Nodes() {
		if i%3 == 0 {
			env.Avail[id] = vector.Of(8, 8)
		} else {
			env.Avail[id] = vector.Of(1, 1)
		}
	}
	cfg := Default()
	cfg.Mode = Spreading
	cfg.VirtualDim = true
	p := newPIDCAN(t, env, cfg)
	if pt := p.point(vector.Of(5, 5)); len(pt) != 3 {
		t.Fatalf("VD point has %d dims, want 3", len(pt))
	}
	p.Start()
	env.Eng.Run(30 * sim.Minute)
	res := queryOnce(t, env, p, env.Net.Nodes()[1], vector.Of(5, 5), 2)
	for _, c := range res.Candidates {
		if !c.Avail.Dominates(vector.Of(5, 5)) {
			t.Errorf("VD candidate unqualified: %+v", c)
		}
	}
}

func TestNodeLeftCleansState(t *testing.T) {
	env, p := runProtocol(t, Default(), 13)
	id := env.Net.Nodes()[5]
	if p.state(id) == nil {
		t.Fatal("missing state")
	}
	env.Kill(id)
	p.NodeLeft(id)
	if p.state(id) != nil {
		t.Error("state survived NodeLeft")
	}
	p.NodeLeft(id) // idempotent
	// Queries still work afterwards.
	res := queryOnce(t, env, p, env.Net.Nodes()[0], vector.Uniform(3, 5), 2)
	_ = res
}

func TestQueryAfterChurnMidFlight(t *testing.T) {
	env, p := runProtocol(t, Default(), 14)
	// Kill a third of the nodes, then immediately query: in-flight
	// deliveries to dead nodes must take the drop path and the query
	// must still resolve.
	nodes := env.Net.Nodes()
	for i, id := range nodes {
		if i%3 == 0 && i > 0 {
			env.Kill(id)
			p.NodeLeft(id)
		}
	}
	alive := env.AliveNodes()
	res := queryOnce(t, env, p, alive[0], vector.Uniform(3, 5), 2)
	_ = res
}

func TestQueryDeterminism(t *testing.T) {
	run := func() (int, int) {
		env, p := runProtocol(t, Default(), 15)
		res := queryOnce(t, env, p, env.Net.Nodes()[1], vector.Uniform(3, 5), 3)
		return len(res.Candidates), res.Hops
	}
	c1, h1 := run()
	c2, h2 := run()
	if c1 != c2 || h1 != h2 {
		t.Errorf("same seed diverged: (%d,%d) vs (%d,%d)", c1, h1, c2, h2)
	}
}

func TestPIListExpiry(t *testing.T) {
	env := testEnv(t, 2, 32, 16)
	cfg := Default()
	cfg.IndexTTL = 50 * sim.Second
	p := newPIDCAN(t, env, cfg)
	p.Start()
	// Manually insert an index entry and verify sampling honours TTL.
	id := env.Net.Nodes()[3]
	st := p.state(id)
	st.index(7, env.Eng.Now()+50*sim.Second)
	if got := p.PIListLen(id); got != 1 {
		t.Fatalf("PIListLen = %d", got)
	}
	if got := p.pilistSample(st, env.Eng.Now(), 5, nil); len(got) != 1 || got[0] != 7 {
		t.Errorf("sample = %v", got)
	}
	env.Eng.Run(60 * sim.Second)
	if got := p.pilistSample(st, env.Eng.Now(), 5, nil); len(got) != 0 {
		t.Errorf("expired sample = %v", got)
	}
	if got := p.PIListLen(id); got != 0 {
		t.Errorf("PIListLen after expiry = %d", got)
	}
	// skip filter
	st.index(9, env.Eng.Now()+sim.Hour)
	if got := p.pilistSample(st, env.Eng.Now(), 5, map[overlay.NodeID]bool{9: true}); len(got) != 0 {
		t.Errorf("skip filter failed: %v", got)
	}
}

func TestCacheLenAccessors(t *testing.T) {
	env := testEnv(t, 2, 8, 17)
	p := newPIDCAN(t, env, Default())
	if p.CacheLen(3) != 0 || p.PIListLen(3) != 0 {
		t.Error("accessors on unknown node should be 0")
	}
	p.Start()
	if p.CacheLen(3) != 0 {
		t.Error("fresh cache should be empty")
	}
}

func TestRangeQueryAllFindsEverything(t *testing.T) {
	env, p := runProtocol(t, Default(), 18)
	var res proto.QueryResult
	got := false
	p.RangeQueryAll(env.Net.Nodes()[0], vector.Uniform(3, 5), func(r proto.QueryResult) {
		res = r
		got = true
	})
	env.Eng.Run(env.Eng.Now() + 10*sim.Minute)
	if !got {
		t.Fatal("range query never resolved")
	}
	// INSCAN-RQ must find at least as many candidates as the
	// single-message query, at higher traffic.
	single := queryOnce(t, env, p, env.Net.Nodes()[0], vector.Uniform(3, 5), 3)
	if len(res.Candidates) < len(single.Candidates) {
		t.Errorf("INSCAN-RQ found %d < single-message %d", len(res.Candidates), len(single.Candidates))
	}
	for _, c := range res.Candidates {
		if !c.Avail.Dominates(vector.Uniform(3, 5)) {
			t.Errorf("unqualified candidate %+v", c)
		}
	}
	// It must have found every rich node with a fresh record.
	if len(res.Candidates) == 0 {
		t.Error("INSCAN-RQ found nothing")
	}
}

func TestRangeQueryDeadRequester(t *testing.T) {
	env, p := runProtocol(t, Default(), 19)
	id := env.Net.Nodes()[4]
	env.Kill(id)
	p.NodeLeft(id)
	got := false
	p.RangeQueryAll(id, vector.Uniform(3, 5), func(r proto.QueryResult) {
		got = true
		if len(r.Candidates) != 0 {
			t.Errorf("dead requester got candidates")
		}
	})
	if !got {
		t.Fatal("range query from dead requester must resolve immediately")
	}
}

func BenchmarkDiffusionCycle(b *testing.B) {
	cmax := vector.Of(10, 10, 10, 10, 10)
	env := prototest.New(5, 512, cmax, 20)
	p, err := New(env, Default())
	if err != nil {
		b.Fatal(err)
	}
	p.Start()
	for _, id := range env.Net.Nodes() {
		p.state(id).cache.Put(proto.Record{Node: id, Avail: cmax.Scale(0.5), Stored: 0, Expires: sim.Day})
	}
	ids := env.Net.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.diffuse(ids[i%len(ids)])
		env.Eng.Run(env.Eng.Now() + sim.Second)
	}
}

func BenchmarkQuery(b *testing.B) {
	cmax := vector.Of(10, 10)
	env := prototest.New(2, 256, cmax, 21)
	for i, id := range env.Net.Nodes() {
		if i%4 == 0 {
			env.Avail[id] = vector.Of(8, 8)
		} else {
			env.Avail[id] = vector.Of(1, 1)
		}
	}
	p, err := New(env, Default())
	if err != nil {
		b.Fatal(err)
	}
	p.Start()
	env.Eng.Run(30 * sim.Minute)
	ids := env.Net.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		p.Query(ids[i%len(ids)], vector.Of(5, 5), 3, func(proto.QueryResult) { done = true })
		env.Eng.Run(env.Eng.Now() + 5*sim.Minute)
		if !done {
			b.Fatal("query did not resolve")
		}
	}
}

// Diffusion coverage must grow across rounds: random NINode walks
// make successive rounds reach different index nodes, so the union
// of PIList holders expands well beyond one round's ω.
func TestDiffusionCoverageGrowsAcrossRounds(t *testing.T) {
	env := testEnv(t, 3, 256, 23)
	cfg := Default()
	p := newPIDCAN(t, env, cfg)
	p.Start()
	// Give one interior node a record and diffuse repeatedly.
	var origin overlay.NodeID = -1
	for _, id := range env.Net.Nodes() {
		z, _ := env.Net.ZoneOf(id)
		if z.Lo[0] > 0.4 && z.Lo[1] > 0.4 && z.Lo[2] > 0.4 {
			origin = id
			break
		}
	}
	if origin < 0 {
		t.Skip("no interior node")
	}
	p.state(origin).cache.Put(proto.Record{
		Node: origin, Avail: vector.Uniform(3, 9), Stored: 0, Expires: sim.Day,
	})
	reachAfter := func(rounds int) int {
		for i := 0; i < rounds; i++ {
			p.diffuse(origin)
			env.Eng.Run(env.Eng.Now() + 10*sim.Second)
		}
		n := 0
		for _, id := range env.Net.Nodes() {
			if st := p.state(id); st != nil {
				if _, ok := st.pilist[origin]; ok {
					n++
				}
			}
		}
		return n
	}
	one := reachAfter(1)
	many := reachAfter(9) // cumulative: 10 rounds total
	if one == 0 {
		t.Fatal("first round reached nobody")
	}
	if many <= one {
		t.Errorf("coverage did not grow: round1=%d rounds10=%d", one, many)
	}
}

// The query must never return expired records even when caches still
// hold them.
func TestQueryIgnoresExpiredRecords(t *testing.T) {
	env := testEnv(t, 2, 32, 24)
	cfg := Default()
	cfg.StateTTL = 60 * sim.Second
	p := newPIDCAN(t, env, cfg)
	p.Start()
	// Plant a record directly and let it expire.
	duty := env.Net.OwnerAt(p.point(vector.Of(9, 9)))
	p.state(duty).cache.Put(proto.Record{
		Node: 3, Avail: vector.Of(9, 9), Stored: 0, Expires: 60 * sim.Second,
	})
	env.Eng.Run(5 * sim.Minute) // past expiry
	res := queryOnce(t, env, p, env.Net.Nodes()[0], vector.Of(8, 8), 2)
	for _, c := range res.Candidates {
		if c.Node == 3 {
			t.Error("expired record returned")
		}
	}
}

func TestAccessorsAndCMaxSource(t *testing.T) {
	env := testEnv(t, 2, 16, 25)
	p := newPIDCAN(t, env, Default())
	if p.Name() != "HID-CAN" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.Config().L != 2 {
		t.Errorf("Config.L = %d", p.Config().L)
	}
	// SoS slack with an installed estimator must respect the
	// per-node bound.
	cfgS := Default()
	cfgS.SoS = true
	ps := newPIDCAN(t, env, cfgS)
	ps.SetCMaxSource(func(overlay.NodeID) vector.Vec { return vector.Of(6, 6) })
	e := vector.Of(4, 4)
	for i := 0; i < 50; i++ {
		s := ps.slack(3, e)
		if !s.Dominates(e) || !vector.Of(6, 6).Dominates(s) {
			t.Fatalf("slack %v outside [e, estimate]", s)
		}
	}
	// A nil/size-mismatched estimate falls back to env cmax.
	ps.SetCMaxSource(func(overlay.NodeID) vector.Vec { return nil })
	s := ps.slack(3, e)
	if !s.Dominates(e) || !env.Cmax.Dominates(s) {
		t.Errorf("fallback slack %v outside [e, cmax]", s)
	}
}

func TestStateUpdateNow(t *testing.T) {
	env := testEnv(t, 2, 32, 26)
	p := newPIDCAN(t, env, Default())
	p.Start()
	env.Avail[4] = vector.Of(7, 7)
	duty := env.Net.OwnerAt(p.point(vector.Of(7, 7)))
	p.StateUpdateNow(4)
	env.Eng.Run(5 * sim.Second)
	if st := p.state(duty); st == nil || len(st.cache.Qualified(vector.Of(6, 6), env.Eng.Now(), 0)) == 0 {
		t.Error("StateUpdateNow did not store the record")
	}
	// Dead node: no-op.
	env.Kill(4)
	p.NodeLeft(4)
	p.StateUpdateNow(4)
}

func TestQueryFromDeadRequester(t *testing.T) {
	env, p := runProtocol(t, Default(), 27)
	id := env.Net.Nodes()[7]
	env.Kill(id)
	p.NodeLeft(id)
	got := false
	p.Query(id, vector.Uniform(3, 5), 2, func(r proto.QueryResult) {
		got = true
		if len(r.Candidates) != 0 {
			t.Error("dead requester got candidates")
		}
	})
	if !got {
		t.Fatal("dead-requester query must resolve synchronously")
	}
}

func TestSoSRetriesWithOriginalDemand(t *testing.T) {
	// With an impossible slacked range but a satisfiable original
	// demand, SoS must fall back and still find candidates.
	cfg := Default()
	cfg.SoS = true
	env, p := runProtocol(t, cfg, 28)
	// Demand satisfiable by the top half of the diagonal cluster.
	res := queryOnce(t, env, p, env.Net.Nodes()[1], vector.Uniform(3, 5), 2)
	for _, c := range res.Candidates {
		if !c.Avail.Dominates(vector.Uniform(3, 5)) {
			t.Errorf("unqualified candidate after SoS fallback: %+v", c)
		}
	}
}
