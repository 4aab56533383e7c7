package gossip

import (
	"testing"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/prototest"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

func runGossip(t testing.TB, n int, seed uint64) (*prototest.Env, *Newscast) {
	t.Helper()
	cmax := vector.Of(10, 10)
	env := prototest.New(2, n, cmax, seed)
	nodes := env.Net.Nodes()
	for i, id := range nodes {
		f := 1 + 8*float64(i)/float64(len(nodes))
		env.Avail[id] = vector.Of(f, f)
	}
	g, err := New(env, Default())
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	env.Eng.Run(1 * sim.Hour) // several gossip rounds
	return env, g
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	if err := (Config{Cycle: 0, EntryTTL: sim.Second}).Validate(); err == nil {
		t.Error("zero cycle validated")
	}
	if err := (Config{Cycle: sim.Second, EntryTTL: sim.Second, QueryTTL: -1}).Validate(); err == nil {
		t.Error("negative TTL validated")
	}
	if _, err := New(prototest.New(2, 2, vector.Of(1, 1), 1), Config{}); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestViewSizeIsLogN(t *testing.T) {
	env, g := runGossip(t, 128, 1)
	if g.ViewSize() != 7 {
		t.Errorf("ViewSize = %d, want 7", g.ViewSize())
	}
	// Views never exceed the bound.
	for _, id := range env.Net.Nodes() {
		if len(g.views[id]) > g.ViewSize() {
			t.Fatalf("view of %d has %d entries, bound %d", id, len(g.views[id]), g.ViewSize())
		}
	}
	if g.Name() != "Newscast" {
		t.Error("Name wrong")
	}
}

func TestGossipSpreadsFreshRecords(t *testing.T) {
	env, g := runGossip(t, 64, 2)
	if env.Rec.MessageCount(metrics.MsgGossip) == 0 {
		t.Fatal("no gossip messages")
	}
	// After an hour of exchanges, views must hold real availability
	// records (Avail non-nil), not just bootstrap stubs.
	withAvail := 0
	for _, id := range env.Net.Nodes() {
		for _, r := range g.sortedView(id) {
			if r.Avail != nil {
				withAvail++
			}
		}
	}
	if withAvail == 0 {
		t.Error("no availability records propagated")
	}
}

func TestQueryFindsQualified(t *testing.T) {
	env, g := runGossip(t, 128, 3)
	var res proto.QueryResult
	got := false
	g.Query(env.Net.Nodes()[0], vector.Of(5, 5), 2, func(r proto.QueryResult) {
		res = r
		got = true
	})
	env.Eng.Run(env.Eng.Now() + 5*sim.Minute)
	if !got {
		t.Fatal("query never resolved")
	}
	for _, c := range res.Candidates {
		if !c.Avail.Dominates(vector.Of(5, 5)) {
			t.Errorf("unqualified candidate %+v", c)
		}
		if c.Node == env.Net.Nodes()[0] {
			t.Error("query returned requester")
		}
	}
}

func TestQueryImpossibleDemand(t *testing.T) {
	env, g := runGossip(t, 64, 4)
	got := false
	g.Query(env.Net.Nodes()[1], vector.Of(99, 99), 2, func(r proto.QueryResult) {
		got = true
		if len(r.Candidates) != 0 {
			t.Errorf("impossible demand matched: %+v", r.Candidates)
		}
	})
	env.Eng.Run(env.Eng.Now() + 5*sim.Minute)
	if !got {
		t.Fatal("query never resolved")
	}
}

func TestQueryForwardingBounded(t *testing.T) {
	env, g := runGossip(t, 64, 5)
	got := false
	g.Query(env.Net.Nodes()[2], vector.Of(9.8, 9.8), 5, func(r proto.QueryResult) {
		got = true
		// TTL = ⌈log2 64⌉ = 6 forwarding hops plus at most one
		// found-notify.
		if r.Hops > 7 {
			t.Errorf("query used %d hops, TTL 6", r.Hops)
		}
	})
	env.Eng.Run(env.Eng.Now() + 5*sim.Minute)
	if !got {
		t.Fatal("query never resolved")
	}
}

func TestNodeLeftCleansView(t *testing.T) {
	env, g := runGossip(t, 32, 6)
	id := env.Net.Nodes()[3]
	env.Kill(id)
	g.NodeLeft(id)
	if _, ok := g.views[id]; ok {
		t.Error("view survived NodeLeft")
	}
	g.NodeLeft(id) // idempotent
	// Gossip continues among survivors.
	before := env.Rec.MessageCount(metrics.MsgGossip)
	env.Eng.Run(env.Eng.Now() + 30*sim.Minute)
	if env.Rec.MessageCount(metrics.MsgGossip) <= before {
		t.Error("gossip stopped after a departure")
	}
}

func TestChurnPrunesStaleEntries(t *testing.T) {
	env, g := runGossip(t, 32, 7)
	// Kill a node; exchanges that pick it must drop the entry.
	victim := env.Net.Nodes()[5]
	env.Kill(victim)
	g.NodeLeft(victim)
	env.Eng.Run(env.Eng.Now() + 2*sim.Hour)
	for _, id := range env.AliveNodes() {
		for _, r := range g.sortedView(id) {
			if r.Node == victim && !r.Expired(env.Eng.Now()) {
				t.Fatalf("alive view of %d still holds fresh entry for dead node", id)
			}
		}
	}
}

func TestNodeJoinedBootstraps(t *testing.T) {
	env, g := runGossip(t, 32, 8)
	// Simulate a joiner.
	newID, err := env.Join()
	if err != nil {
		t.Fatal(err)
	}
	env.Avail[newID] = vector.Of(3, 3)
	g.NodeJoined(newID)
	if len(g.views[newID]) == 0 {
		t.Error("joiner has empty view")
	}
	env.Eng.Run(env.Eng.Now() + 30*sim.Minute)
	// The joiner keeps gossiping.
	if len(g.views[newID]) == 0 {
		t.Error("joiner view collapsed")
	}
}

func BenchmarkExchange(b *testing.B) {
	cmax := vector.Of(10, 10)
	env := prototest.New(2, 512, cmax, 9)
	g, err := New(env, Default())
	if err != nil {
		b.Fatal(err)
	}
	g.Start()
	env.Eng.Run(30 * sim.Minute)
	ids := env.Net.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.exchange(ids[i%len(ids)])
		env.Eng.Run(env.Eng.Now() + sim.Second)
	}
}

func TestQueryFromDeadRequesterResolves(t *testing.T) {
	env, g := runGossip(t, 32, 9)
	id := env.Net.Nodes()[4]
	env.Kill(id)
	g.NodeLeft(id)
	got := false
	g.Query(id, vector.Of(5, 5), 1, func(r proto.QueryResult) {
		got = true
		if len(r.Candidates) != 0 {
			t.Error("dead requester got candidates")
		}
	})
	env.Eng.Run(env.Eng.Now() + 2*sim.Minute)
	if !got {
		t.Fatal("query never resolved")
	}
}

func TestMergeKeepsFreshest(t *testing.T) {
	env, g := runGossip(t, 16, 10)
	id := env.Net.Nodes()[0]
	now := env.Eng.Now()
	old := proto.Record{Node: 9, Avail: vector.Of(1, 1), Stored: now - sim.Minute, Expires: now + sim.Hour}
	fresh := proto.Record{Node: 9, Avail: vector.Of(7, 7), Stored: now, Expires: now + sim.Hour}
	g.merge(id, []proto.Record{old})
	g.merge(id, []proto.Record{fresh})
	g.merge(id, []proto.Record{old}) // stale again: must not regress
	for _, r := range g.sortedView(id) {
		if r.Node == 9 && !r.Avail.Equal(vector.Of(7, 7)) {
			t.Errorf("view regressed to stale record: %+v", r)
		}
	}
	// Self records and expired records are never merged.
	g.merge(id, []proto.Record{{Node: id, Stored: now, Expires: now + sim.Hour}})
	for _, r := range g.sortedView(id) {
		if r.Node == id {
			t.Error("merged a self record")
		}
	}
	g.merge(id, []proto.Record{{Node: 11, Stored: now - 2*sim.Hour, Expires: now - sim.Hour}})
	for _, r := range g.sortedView(id) {
		if r.Node == 11 {
			t.Error("merged an expired record")
		}
	}
}

func TestMergeOnUnknownNodeIsNoop(t *testing.T) {
	env, g := runGossip(t, 16, 12)
	_ = env
	g.merge(overlay.NodeID(9999), []proto.Record{{Node: 1}}) // must not panic
}
