package sim

import (
	"fmt"
	"strings"
	"testing"
)

// goldenOrder is what the script of TestGoldenOrder printed at the
// commit before periodic timers became their own heap entries (PR 21,
// 2818713): one row per driver call — the call, the callbacks it ran
// as label@seconds, then Now, Processed, Pending and the When of the
// three periodic handles A, B, C. A change to the engine that moves a
// row has changed the (at, seq) order of every seeded run.
var goldenOrder = []string{
	"init:  | now=0 processed=0 pending=14 when=1,2,0",
	"step=true: C@0 | now=0 processed=1 pending=16 when=1,2,5",
	"step=true: A@1 | now=1 processed=2 pending=16 when=4,2,5",
	"run(2)=5: r0@1 r1@1 B@2 F@2 c.at@2 | now=2 processed=7 pending=12 when=4,4,5",
	"step=true: r3@3 | now=3 processed=8 pending=11 when=4,4,5",
	"run(4)=4: r4@3 D@4 A@4 B@4 | now=4 processed=12 pending=9 when=7,6,5",
	"step=true: c.after@5 | now=5 processed=13 pending=8 when=7,6,5",
	"run(5)=1: C@5 | now=5 processed=14 pending=9 when=7,6,10",
	"run(5)=0:  | now=5 processed=14 pending=9 when=7,6,10",
	"step=true:  | now=6 processed=15 pending=8 when=7,6,10",
	"step=true: A@7 | now=7 processed=16 pending=8 when=10,6,10",
	"run(8)=2: c.at@7 r2@8 | now=8 processed=18 pending=5 when=10,6,10",
	"run(10)=4: r5@10 c.after@10 C@10 A@10 | now=10 processed=22 pending=4 when=10,6,15",
	"step=true: c.at@12 | now=12 processed=23 pending=3 when=10,6,15",
	"run(12)=0:  | now=12 processed=23 pending=3 when=10,6,15",
	"run(14)=1:  | now=14 processed=24 pending=2 when=10,6,15",
	"run(16)=2: c.after@15 C@15 | now=16 processed=26 pending=3 when=10,6,20",
	"run(30)=3: c.at@17 c.after@20 | now=30 processed=29 pending=0 when=10,6,20",
	"step=false:  | now=30 processed=29 pending=0 when=10,6,20",
}

// TestGoldenOrder drives one engine through Every, After, At, Stop
// from inside a callback, Stop from outside between firings and
// callbacks that schedule, with a seeded handful of one-shots landing
// on the same whole seconds so that ties are broken by seq, and
// compares everything observable after every driver call.
func TestGoldenOrder(t *testing.T) {
	e := New()
	var fired []string
	log := func(label string) { fired = append(fired, fmt.Sprintf("%s@%d", label, e.Now()/Second)) }

	// A stops itself in its fourth firing.
	var a Timer
	aCount := 0
	a = e.Every(1*Second, 3*Second, func() {
		log("A")
		if aCount++; aCount == 4 {
			e.Stop(a)
		}
	})
	// B is stopped from outside with a firing queued: that firing
	// still pops, moves Now and counts, and runs nothing.
	b := e.Every(2*Second, 2*Second, func() { log("B") })
	// C's callback schedules at C's own next firing time: the child's
	// seq is drawn before C's, so the child goes first.
	c := e.Every(0, 5*Second, func() {
		log("C")
		e.After(5*Second, func() { log("c.after") })
		e.At(e.Now()+2*Second, func() { log("c.at") })
	})
	// D stops one-shot E, which is then discarded uncounted; F ties
	// with B's first firing and was scheduled after it.
	var eTimer Timer
	e.At(4*Second, func() { log("D"); e.Stop(eTimer) })
	eTimer = e.At(6*Second, func() { log("E") })
	e.After(2*Second, func() { log("F") })
	rng := NewRNG(23, StreamProtocol)
	for i := 0; i < 6; i++ {
		label := fmt.Sprintf("r%d", i)
		e.At(Time(rng.IntN(12))*Second, func() { log(label) })
	}
	// G is stopped before anything runs and sits beyond the first Run
	// horizons; Z is a periodic stopped while its firing is far out.
	g := e.At(9*Second, func() { log("G") })
	e.Stop(g)
	z := e.Every(13*Second, 1*Second, func() { log("Z") })

	var rows []string
	row := func(call string) {
		rows = append(rows, fmt.Sprintf("%s: %s | now=%d processed=%d pending=%d when=%d,%d,%d",
			call, strings.Join(fired, " "), e.Now()/Second, e.Processed(), e.Pending(),
			e.When(a)/Second, e.When(b)/Second, e.When(c)/Second))
		fired = fired[:0]
	}
	step := func() { row(fmt.Sprintf("step=%v", e.Step())) }
	run := func(until Time) { row(fmt.Sprintf("run(%d)=%d", until/Second, e.Run(until))) }

	row("init")
	step()
	step()
	run(2 * Second)
	step()
	run(4 * Second)
	e.Stop(b) // B's firing at 6 s is queued
	step()
	run(5 * Second)
	run(5 * Second)
	step()
	step()
	run(8 * Second)
	e.Stop(z)
	run(10 * Second)
	step()
	run(12 * Second)
	run(14 * Second) // Z's stopped firing at 13 s counts
	run(16 * Second)
	e.Stop(c)
	run(30 * Second)
	step()

	if len(rows) != len(goldenOrder) {
		t.Fatalf("%d rows, golden has %d", len(rows), len(goldenOrder))
	}
	for i := range rows {
		if rows[i] != goldenOrder[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, rows[i], goldenOrder[i])
		}
	}
}

// TestPeriodicTimerAllocations: a periodic timer takes a slot of the
// engine's slab, not an object of its own, and firing it allocates
// nothing.
func TestPeriodicTimerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	e := New()
	e.Grow(1024) // the slab's and the queue's own growth is not the timer's
	fn := func() {}
	if n := testing.AllocsPerRun(500, func() { e.Every(Second, Second, fn) }); n != 0 {
		t.Errorf("Every allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(5000, func() { e.Step() }); n != 0 {
		t.Errorf("a periodic firing allocates %v objects, want 0", n)
	}
	if e.Pending() != 501 {
		t.Errorf("Pending = %d after firings, want the 501 timers", e.Pending())
	}
}
