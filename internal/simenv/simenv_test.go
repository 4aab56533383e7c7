package simenv_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/sim"
	"pidcan/internal/simenv"
	"pidcan/internal/space"
	"pidcan/internal/vector"
)

// TestEnvMatchesModel drives seeded random joins, leaves, sends, path
// sends and clock advances through an Env, with and without an
// overlay, and holds every step to a brute-force model of which nodes
// are up:
//   - AliveNodes is the ascending scan of Alive, and the model's set;
//   - a send from a dead node is neither counted nor delivered;
//   - a send from an alive node counts one message, a path send one
//     per hop, and an empty path nothing;
//   - a message resolves exactly once, at its send time plus a
//     millisecond per hop: deliver if its final hop is up then (dead
//     hops on the way do not matter), else onDrop — also when the
//     target left while the message was in flight;
//   - the overlay refuses to lose its last node, which stays alive.
func TestEnvMatchesModel(t *testing.T) {
	var inFlightDrops, deadHopDeliveries int
	for seed := uint64(1); seed <= 60; seed++ {
		for _, dims := range []int{0, 2} {
			d, h := checkAgainstModel(t, seed, dims)
			inFlightDrops += d
			deadHopDeliveries += h
			if t.Failed() {
				t.Fatalf("seed %d, dims %d", seed, dims)
			}
		}
	}
	if inFlightDrops == 0 || deadHopDeliveries == 0 {
		t.Errorf("%d drops of a target that left in flight, %d deliveries past a dead hop: want both exercised",
			inFlightDrops, deadHopDeliveries)
	}
}

// checkAgainstModel runs one seeded history and returns how many
// messages were dropped because their target left in flight and how
// many were delivered along a path with a dead hop.
func checkAgainstModel(t *testing.T, seed uint64, dims int) (inFlightDrops, deadHopDeliveries int) {
	const start = 4
	e, err := simenv.New(seed, start, dims, vector.Of(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(seed, uint64(dims)))
	up := map[overlay.NodeID]bool{}
	for id := range overlay.NodeID(start) {
		up[id] = true
	}
	next := overlay.NodeID(start)
	eng := e.Engine()
	rec := e.Recorder()
	// anyID picks an id that is up, down, or was never used.
	anyID := func() overlay.NodeID { return overlay.NodeID(r.IntN(int(next) + 2)) }
	var pending, resolved int

	// send records the expectations of one message sent now along
	// path (a Send is a path of one hop) and returns its callbacks.
	send := func(from overlay.NodeID, path []overlay.NodeID) (deliver, onDrop func()) {
		if !up[from] || len(path) == 0 {
			fail := func() { t.Errorf("message from %d along %v resolved; want it discarded", from, path) }
			return fail, fail
		}
		pending++
		due := eng.Now() + sim.Time(len(path))*sim.Millisecond
		final := path[len(path)-1]
		wasUp := up[final]
		done := false
		resolve := func(delivered bool) {
			if done {
				t.Errorf("message to %d resolved twice", final)
			}
			done = true
			resolved++
			if eng.Now() != due {
				t.Errorf("message to %d resolved at %v, want %v", final, eng.Now(), due)
			}
			if delivered != up[final] {
				t.Errorf("message to %d: delivered=%v with the target up=%v", final, delivered, up[final])
			}
			if !delivered && wasUp {
				inFlightDrops++
			}
			if delivered && slices.ContainsFunc(path, func(h overlay.NodeID) bool { return !up[h] }) {
				deadHopDeliveries++
			}
		}
		return func() { resolve(true) }, func() { resolve(false) }
	}

	for step := 0; step < 400; step++ {
		switch op := r.IntN(12); {
		case op < 2:
			id, err := e.Join()
			if err != nil || id != next {
				t.Fatalf("Join = %d, %v; want %d", id, err, next)
			}
			up[id] = true
			next++
		case op < 4:
			id := anyID()
			alive := 0
			for _, u := range up {
				if u {
					alive++
				}
			}
			err := e.Leave(id)
			switch {
			case !up[id]:
				if err == nil {
					t.Fatalf("Leave(%d) of a node that is not up succeeded", id)
				}
			case dims > 0 && alive == 1:
				if !errors.Is(err, space.ErrLastOwner) {
					t.Fatalf("Leave of the last overlay node: %v, want ErrLastOwner", err)
				}
			case err != nil:
				t.Fatalf("Leave(%d): %v", id, err)
			default:
				up[id] = false
			}
		case op < 7:
			from, to := anyID(), anyID()
			before := rec.MessageTotal()
			deliver, onDrop := send(from, []overlay.NodeID{to})
			e.Send(from, to, metrics.MsgPlacement, 64, deliver, onDrop)
			if got, want := rec.MessageTotal()-before, int64(b2i(up[from])); got != want {
				t.Fatalf("Send from %d (up %v) counted %d messages, want %d", from, up[from], got, want)
			}
		case op < 10:
			from := anyID()
			path := make([]overlay.NodeID, r.IntN(5))
			for i := range path {
				path[i] = anyID()
			}
			before := rec.MessageTotal()
			deliver, onDrop := send(from, path)
			e.SendPath(from, path, metrics.MsgDutyQuery, 64, deliver, onDrop)
			if got, want := rec.MessageTotal()-before, int64(b2i(up[from])*len(path)); got != want {
				t.Fatalf("SendPath from %d (up %v) along %v counted %d messages, want %d", from, up[from], path, got, want)
			}
		default:
			eng.Run(eng.Now() + sim.Time(r.IntN(3000)))
		}

		var scan []overlay.NodeID
		for id := range next + 2 {
			if e.Alive(id) != up[id] {
				t.Fatalf("Alive(%d) = %v, model %v", id, e.Alive(id), up[id])
			}
			if e.Alive(id) {
				scan = append(scan, id)
			}
		}
		if e.Size() != len(scan) {
			t.Fatalf("Size %d, want %d", e.Size(), len(scan))
		}
		// Not every step: a few leaves in a row let stale ids pile up.
		if r.IntN(4) == 0 && !slices.Equal(e.AliveNodes(), scan) {
			t.Fatalf("AliveNodes %v, want the ascending scan %v", e.AliveNodes(), scan)
		}
		if nw := e.Overlay(); nw != nil && !slices.Equal(nw.Nodes(), scan) {
			t.Fatalf("overlay holds %v, alive %v", nw.Nodes(), scan)
		}
	}
	eng.Run(eng.Now() + sim.Minute)
	if resolved != pending {
		t.Errorf("%d of %d counted messages resolved", resolved, pending)
	}
	return inFlightDrops, deadHopDeliveries
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestDeliveryAllocations: a message in flight takes a slot of the
// host's and one of the engine's, not objects of its own, so sending,
// delivering and dropping allocate nothing beyond the caller's
// closures (made once here).
func TestDeliveryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	e, err := simenv.New(1, 4, 0, vector.Of(1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Leave(3); err != nil {
		t.Fatal(err)
	}
	eng := e.Engine()
	var delivered, dropped int
	deliver, drop := func() { delivered++ }, func() { dropped++ }
	path := []overlay.NodeID{2, 3}
	round := func() {
		e.Send(0, 1, metrics.MsgGossip, 1, deliver, drop)
		e.SendPath(0, path, metrics.MsgGossip, 1, deliver, drop) // node 3 left: dropped
		eng.Step()
		eng.Step()
	}
	round() // the slabs grow to two messages
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("a delivered and a dropped message allocate %v objects, want 0", n)
	}
	if delivered != 1002 || dropped != 1002 {
		t.Errorf("%d delivered, %d dropped; want 1002 each", delivered, dropped)
	}
}
