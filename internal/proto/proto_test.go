package proto

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"pidcan/internal/overlay"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

func rec(node overlay.NodeID, avail vector.Vec, stored, ttl sim.Time) Record {
	return Record{Node: node, Avail: avail, Stored: stored, Expires: stored + ttl}
}

func TestRecordExpiry(t *testing.T) {
	r := rec(1, vector.Of(1), 100*sim.Second, 600*sim.Second)
	if r.Expired(100 * sim.Second) {
		t.Error("fresh record expired")
	}
	if !r.Expired(700 * sim.Second) {
		t.Error("stale record not expired")
	}
	if r.Expired(699 * sim.Second) {
		t.Error("record expired one tick early")
	}
}

func TestRecordQualifies(t *testing.T) {
	r := rec(1, vector.Of(4, 8), 0, sim.Hour)
	if !r.Qualifies(vector.Of(4, 8)) || !r.Qualifies(vector.Of(1, 1)) {
		t.Error("dominating record should qualify")
	}
	if r.Qualifies(vector.Of(5, 1)) {
		t.Error("non-dominating record qualified")
	}
}

func TestCachePutQualified(t *testing.T) {
	c := NewCache()
	c.Put(rec(3, vector.Of(10, 10), 0, 600*sim.Second))
	c.Put(rec(1, vector.Of(5, 20), 0, 600*sim.Second))
	c.Put(rec(2, vector.Of(1, 1), 0, 600*sim.Second))
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	got := c.Qualified(vector.Of(4, 9), 100*sim.Second, 0)
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 3 {
		t.Errorf("Qualified = %+v", got)
	}
	// max caps the result.
	got = c.Qualified(vector.Of(0, 0), 100*sim.Second, 2)
	if len(got) != 2 {
		t.Errorf("capped Qualified = %+v", got)
	}
}

func TestCacheRefreshReplaces(t *testing.T) {
	c := NewCache()
	c.Put(rec(1, vector.Of(1), 0, 600*sim.Second))
	c.Put(rec(1, vector.Of(9), 100*sim.Second, 600*sim.Second))
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	got := c.Qualified(vector.Of(5), 200*sim.Second, 0)
	if len(got) != 1 || got[0].Avail[0] != 9 {
		t.Errorf("refresh lost: %+v", got)
	}
}

func TestCacheExpiryAndPurge(t *testing.T) {
	c := NewCache()
	c.Put(rec(1, vector.Of(10), 0, 600*sim.Second))
	c.Put(rec(2, vector.Of(10), 500*sim.Second, 600*sim.Second))
	if !c.NonEmpty(0) {
		t.Error("cache with fresh records reported empty")
	}
	// At t=700 record 1 is stale, record 2 alive.
	got := c.Qualified(vector.Of(1), 700*sim.Second, 0)
	if len(got) != 1 || got[0].Node != 2 {
		t.Errorf("expired record leaked: %+v", got)
	}
	c.Purge(700 * sim.Second)
	if c.Len() != 1 {
		t.Errorf("Purge kept %d", c.Len())
	}
	c.Purge(2 * sim.Hour)
	if c.NonEmpty(2 * sim.Hour) {
		t.Error("empty cache reported non-empty")
	}
	c.Delete(2)
	if c.Len() != 0 {
		t.Error("Delete failed")
	}
}

// TestCacheMatchesBruteForce holds the cache, whose Purge and NonEmpty
// skip their scan until the earliest expiry may have passed, to a
// plain map scanned on every call, under random puts, refreshes
// (shorter-lived ones included), deletes and clock advances.
func TestCacheMatchesBruteForce(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewPCG(seed, 0))
		c, model := NewCache(), map[overlay.NodeID]Record{}
		now := sim.Time(0)
		for step := 0; step < 300; step++ {
			id := overlay.NodeID(r.IntN(12))
			switch op := r.IntN(10); {
			case op < 5: // put or refresh, possibly already expired
				stored := now - sim.Time(r.IntN(3))*sim.Second
				rc := rec(id, vector.Of(float64(r.IntN(4))), stored, sim.Time(r.IntN(8))*sim.Second)
				c.Put(rc)
				model[id] = rc
			case op < 6:
				c.Delete(id)
				delete(model, id)
			case op < 8:
				now += sim.Time(r.IntN(4)) * sim.Second
			default:
				c.Purge(now)
				for id, rc := range model {
					if rc.Expired(now) {
						delete(model, id)
					}
				}
			}
			// Read at the clock and at a probe on either side of it.
			for _, at := range []sim.Time{now, now + sim.Time(r.IntN(9)-4)*sim.Second} {
				var want []Record
				for id := overlay.NodeID(0); id < 12; id++ {
					if rc, ok := model[id]; ok && !rc.Expired(at) {
						want = append(want, rc)
					}
				}
				if got := c.Records(at); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Records(%v) = %v, want %v", seed, step, at, got, want)
				}
				if got := c.NonEmpty(at); got != (len(want) > 0) {
					t.Fatalf("seed %d step %d: NonEmpty(%v) = %v with %d live records", seed, step, at, got, len(want))
				}
			}
			if c.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, c.Len(), len(model))
			}
		}
	}
}

func TestRecordsSorted(t *testing.T) {
	c := NewCache()
	for _, id := range []overlay.NodeID{5, 2, 9, 1} {
		c.Put(rec(id, vector.Of(1), 0, sim.Hour))
	}
	recs := c.Records(0)
	if len(recs) != 4 {
		t.Fatalf("Records = %d", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Node <= recs[i-1].Node {
			t.Fatalf("Records not sorted: %+v", recs)
		}
	}
}

func TestDedupeCandidates(t *testing.T) {
	in := []Record{
		rec(2, vector.Of(1), 100*sim.Second, sim.Hour),
		rec(1, vector.Of(2), 0, sim.Hour),
		rec(2, vector.Of(3), 200*sim.Second, sim.Hour), // fresher dup
	}
	out := DedupeCandidates(in)
	if len(out) != 2 {
		t.Fatalf("Dedupe = %+v", out)
	}
	if out[0].Node != 1 || out[1].Node != 2 {
		t.Errorf("not sorted: %+v", out)
	}
	if out[1].Avail[0] != 3 {
		t.Errorf("kept stale duplicate: %+v", out[1])
	}
	if got := DedupeCandidates(nil); len(got) != 0 {
		t.Errorf("Dedupe(nil) = %v", got)
	}
}
