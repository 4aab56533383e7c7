package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refTimer and refEngine are the engine as it was before timers
// became slab slots: one object per timer, the earliest (at, seq)
// found by a linear scan, a 64-bit seq. TestEngineMatchesModel holds
// Engine to it.
type refTimer struct {
	at       Time
	seq      uint64
	fn       func()
	interval Time
	stopped  bool
	arg      int32
}

type refEngine struct {
	now       Time
	seq       uint64
	q         []*refTimer
	processed uint64
	arg       int32
}

func (r *refEngine) schedule(t, interval Time, arg int32, fn func()) *refTimer {
	tm := &refTimer{at: t, seq: r.seq, fn: fn, interval: interval, arg: arg}
	r.seq++
	r.q = append(r.q, tm)
	return tm
}

func (r *refEngine) fire(until Time) bool {
	for len(r.q) > 0 {
		h := 0
		for i, tm := range r.q {
			if tm.at < r.q[h].at || tm.at == r.q[h].at && tm.seq < r.q[h].seq {
				h = i
			}
		}
		tm := r.q[h]
		dead := tm.stopped && tm.interval == 0
		if !dead && tm.at > until {
			return false
		}
		r.q = slices.Delete(r.q, h, h+1)
		if dead {
			continue
		}
		r.now = tm.at
		r.processed++
		if !tm.stopped {
			r.arg = tm.arg
			tm.fn()
		}
		if tm.interval > 0 && !tm.stopped {
			tm.at = r.now + tm.interval
			tm.seq = r.seq
			r.seq++
			r.q = append(r.q, tm)
		}
		return true
	}
	return false
}

func (r *refEngine) run(until Time) uint64 {
	start := r.processed
	for r.fire(until) {
	}
	r.now = until
	return r.processed - start
}

// model is what the test drives: Engine or refEngine behind handles
// numbered in the order they were made.
type model interface {
	schedule(t, interval Time, arg int32, fn func())
	stop(h int)
	handles() int
	step() bool
	run(until Time) uint64
	now() Time
	arg() int32
	state() string
}

type slabModel struct {
	e  *Engine
	hs []Timer
}

func (m *slabModel) schedule(t, interval Time, arg int32, fn func()) {
	var tm Timer
	switch {
	case interval > 0 && arg != 0:
		tm = m.e.EveryArg(t, interval, arg, fn)
	case interval > 0:
		tm = m.e.Every(t, interval, fn)
	case arg != 0:
		tm = m.e.AfterArg(t-m.e.Now(), arg, fn)
	default:
		tm = m.e.At(t, fn)
	}
	m.hs = append(m.hs, tm)
}
func (m *slabModel) stop(h int)            { m.e.Stop(m.hs[h]) }
func (m *slabModel) handles() int          { return len(m.hs) }
func (m *slabModel) step() bool            { return m.e.Step() }
func (m *slabModel) run(until Time) uint64 { return m.e.Run(until) }
func (m *slabModel) now() Time             { return m.e.Now() }
func (m *slabModel) arg() int32            { return m.e.Arg() }
func (m *slabModel) state() string {
	return fmt.Sprintf("now=%d processed=%d pending=%d", m.e.Now(), m.e.Processed(), m.e.Pending())
}

type refModel struct {
	r  refEngine
	hs []*refTimer
}

func (m *refModel) schedule(t, interval Time, arg int32, fn func()) {
	m.hs = append(m.hs, m.r.schedule(t, interval, arg, fn))
}
func (m *refModel) stop(h int)            { m.hs[h].stopped = true }
func (m *refModel) handles() int          { return len(m.hs) }
func (m *refModel) step() bool            { return m.r.fire(math.MaxInt64) }
func (m *refModel) run(until Time) uint64 { return m.r.run(until) }
func (m *refModel) now() Time             { return m.r.now }
func (m *refModel) arg() int32            { return m.r.arg }
func (m *refModel) state() string {
	return fmt.Sprintf("now=%d processed=%d pending=%d", m.r.now, m.r.processed, len(m.r.q))
}

// driver makes one model's callbacks: each logs itself, the clock and
// Arg, and one in four also stops a random handle (its own, a pending
// one, a done one or a stale one) or schedules a one-shot child.
// Its randomness is its own, so two drivers of equal seed and equal
// firing order make equal decisions.
type driver struct {
	m    model
	r    *rand.Rand
	log  []string
	next int
}

func (d *driver) cb() func() {
	id := d.next
	d.next++
	return func() {
		d.log = append(d.log, fmt.Sprintf("%d@%d/%d", id, d.m.now()/Second, d.m.arg()))
		switch d.r.Intn(8) {
		case 0:
			d.m.stop(d.r.Intn(d.m.handles()))
		case 1:
			d.m.schedule(d.m.now()+Time(d.r.Intn(4))*Second, 0, 0, d.cb())
		}
	}
}

// TestEngineMatchesModel drives Engine and the reference through the
// same random At, After, AfterArg, Every, EveryArg, Stop, Step and
// Run calls, callbacks that stop and schedule included, and compares
// the firings (order, clock, Arg), Now, Processed, Pending and every
// pending timer's When after each call. Times are whole seconds, so
// most firings tie with another and seq decides. Stops pick among all
// handles ever made, so many go through a handle whose slot was
// reused: the reference, where that timer is done, stops nothing.
// Half the seeds start the engine's sequence numbers just short of
// their wrap, so it renumbers mid-run.
func TestEngineMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		slab := &slabModel{e: New()}
		if seed%2 == 1 {
			slab.e.seq = math.MaxUint32 - 40
		}
		ref := &refModel{}
		ds := [2]*driver{{m: slab, r: rand.New(rand.NewSource(seed))}, {m: ref, r: rand.New(rand.NewSource(seed))}}
		ops := rand.New(rand.NewSource(-seed))
		for op := 0; op < 400; op++ {
			var call string
			switch k := ops.Intn(10); {
			case k < 4:
				at := ds[0].m.now() + Time(ops.Intn(6))*Second
				interval, arg := Time(0), int32(0)
				if ops.Intn(3) == 0 {
					interval = Time(1+ops.Intn(5)) * Second
				}
				if ops.Intn(2) == 0 {
					arg = int32(1 + ops.Intn(100))
				}
				call = fmt.Sprintf("schedule(%d, %d, %d)", at/Second, interval/Second, arg)
				for _, d := range ds {
					d.m.schedule(at, interval, arg, d.cb())
				}
			case k < 6:
				h := ops.Intn(ds[0].m.handles() + 1)
				if h == ds[0].m.handles() {
					continue
				}
				call = fmt.Sprintf("stop(%d)", h)
				for _, d := range ds {
					d.m.stop(h)
				}
			case k < 9:
				var got [2]bool
				for i, d := range ds {
					got[i] = d.m.step()
				}
				call = fmt.Sprintf("step=%v/%v", got[0], got[1])
			default:
				until := ds[0].m.now() + Time(ops.Intn(8))*Second
				var got [2]uint64
				for i, d := range ds {
					got[i] = d.m.run(until)
				}
				call = fmt.Sprintf("run(%d)=%d/%d", until/Second, got[0], got[1])
			}
			if !slices.Equal(ds[0].log, ds[1].log) || ds[0].m.state() != ds[1].m.state() {
				t.Fatalf("seed %d op %d %s:\n engine %v %s\n model  %v %s",
					seed, op, call, ds[0].log, ds[0].m.state(), ds[1].log, ds[1].m.state())
			}
			for _, tm := range ref.r.q {
				h := slices.Index(ref.hs, tm)
				if got := slab.e.When(slab.hs[h]); got != tm.at {
					t.Fatalf("seed %d op %d %s: When(handle %d) = %v, model %v", seed, op, call, h, got, tm.at)
				}
			}
			ds[0].log, ds[1].log = ds[0].log[:0], ds[1].log[:0]
		}
	}
}

// TestStaleHandleStopsNothing: a done timer's slot goes to the next
// timer scheduled, and a Stop through the old handle leaves the new
// timer alone, as does one through the zero Timer.
func TestStaleHandleStopsNothing(t *testing.T) {
	e := New()
	old := e.At(Second, func() {})
	e.Step()
	fired := false
	cur := e.At(2*Second, func() { fired = true })
	if cur.slot != old.slot {
		t.Fatalf("the done timer's slot %d was not reused (got %d)", old.slot, cur.slot)
	}
	if !e.Stopped(old) || e.When(old) != -1 {
		t.Errorf("stale handle: Stopped %v, When %v; want true, -1", e.Stopped(old), e.When(old))
	}
	e.Stop(old)
	e.Stop(Timer{})
	e.Run(3 * Second)
	if !fired {
		t.Error("a Stop through a stale handle stopped the slot's next timer")
	}
}
