// Package sim is the deterministic discrete-event simulation engine
// underneath every experiment — the stdlib substitute for the
// PeerSim event-driven mode the paper uses (§IV.A).
//
// Time is integer microseconds, the event queue is a binary heap
// keyed by (time, insertion sequence), and all randomness flows
// through explicitly seeded PCG streams (see rng.go). A run is a
// single-goroutine event loop, so equal seeds reproduce a simulation
// bit-for-bit; parallelism belongs one level up, across runs.
//
// Layout: nothing in the engine is a heap object per timer. A Timer
// is a value handle — a slot number and that slot's generation — into
// a slab of slots holding each timer's callback, time, interval and
// arg. The queue is a slice of pointer-free {at, seq, slot} values. A
// slot is released when its timer is done and reused by a later one,
// which bumps its generation, so a handle outliving its timer goes
// stale and the engine ignores it. A periodic timer keeps its slot
// and is re-queued after each firing under a sequence number drawn
// then, as if its callback had ended by calling At.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Time is a simulation timestamp in microseconds since the start of
// the run.
type Time int64

// Time unit constants.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
	Day         Time = 24 * Hour
)

// Seconds converts a float64 second count to a Time.
func Seconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Hours returns t expressed in hours.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// Timer is a handle to a scheduled event; Engine.Stop cancels it.
// Timers are single-use unless created by Every. The zero Timer names
// no timer, and a handle whose timer is done goes stale once the
// engine reuses its slot: the engine ignores both.
type Timer struct {
	slot int32
	gen  uint32
}

// slot is one timer's state. fn is nil once the timer is stopped or
// done.
type slot struct {
	fn       func()
	at       Time // the firing queued, or the last one once done
	interval Time // > 0: periodic, re-queued after each firing
	arg      int32
	gen      uint32 // bumped each time the slot is taken
}

// event is one queue entry: slot's firing at at, ordered among equal
// times by seq.
type event struct {
	at   Time
	seq  uint32
	slot int32
}

func (a event) before(b event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is a discrete-event simulator. The zero value is not usable;
// call New.
type Engine struct {
	now       Time
	seq       uint32 // the next event's; see renumber
	queue     []event
	slots     []slot
	free      []int32 // released slots, reused last-in first
	processed uint64
	halted    bool
	arg       int32
}

// New returns an engine at time 0 with an empty event queue.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Grow reserves room for n more timers, slots and queue entries, so a
// caller about to schedule a known number of them re-copies neither.
func (e *Engine) Grow(n int) {
	e.queue = slices.Grow(e.queue, n)
	e.slots = slices.Grow(e.slots, max(0, n-len(e.free)))
}

// Pending returns the number of scheduled (possibly stopped) events.
func (e *Engine) Pending() int { return len(e.queue) }

// Arg returns the arg of the timer whose callback is running (see
// AfterArg and EveryArg); 0 for timers made without one.
func (e *Engine) Arg() int32 { return e.arg }

// Processed returns the number of callbacks executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a logic error in a protocol.
func (e *Engine) At(t Time, fn func()) Timer { return e.schedule(t, 0, 0, fn) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer { return e.AfterArg(d, 0, fn) }

// AfterArg is After for a callback shared by many timers, which tells
// them apart by Arg: while fn runs for this timer, Arg returns arg.
func (e *Engine) AfterArg(d Time, arg int32, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.schedule(e.now+d, 0, arg, fn)
}

// Every schedules fn to run first at start and then every interval
// until the returned timer is stopped. fn observes the engine clock
// at each firing. The timer keeps its slot: when fn returns it is
// queued again at now + interval under a newly drawn sequence number,
// so what fn scheduled for that instant runs first.
func (e *Engine) Every(start, interval Time, fn func()) Timer {
	return e.EveryArg(start, interval, 0, fn)
}

// EveryArg is Every for a callback shared by many timers, which tells
// them apart by Arg: while fn runs for this timer, Arg returns arg.
func (e *Engine) EveryArg(start, interval Time, arg int32, fn func()) Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	return e.schedule(start, interval, arg, fn)
}

// schedule takes a slot for a timer and queues its first firing.
func (e *Engine) schedule(t, interval Time, arg int32, fn func()) Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	var i int32
	if n := len(e.free); n > 0 {
		i, e.free = e.free[n-1], e.free[:n-1]
	} else {
		i = int32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	s := &e.slots[i]
	gen := s.gen + 1
	if gen == 0 { // the zero Timer's generation is never taken
		gen = 1
	}
	*s = slot{fn: fn, at: t, interval: interval, arg: arg, gen: gen}
	e.push(t, i)
	return Timer{slot: i, gen: gen}
}

// live returns tm's slot, or nil for a stale or zero handle.
func (e *Engine) live(tm Timer) *slot {
	if tm.gen == 0 || e.slots[tm.slot].gen != tm.gen {
		return nil
	}
	return &e.slots[tm.slot]
}

// Stop cancels the timer tm names. It is safe to call multiple times,
// after the timer fired and through a stale or zero handle, which
// stop nothing. A stopped one-shot timer leaves the queue unseen. A
// periodic timer stopped between firings keeps the firing it has
// queued: that one advances the clock to its time, counts in
// Processed, runs nothing, and is its last.
func (e *Engine) Stop(tm Timer) {
	if s := e.live(tm); s != nil {
		s.fn = nil
	}
}

// Stopped reports whether tm's timer will run no more: it was stopped
// or is done.
func (e *Engine) Stopped(tm Timer) bool {
	s := e.live(tm)
	return s == nil || s.fn == nil
}

// When returns the time tm's timer is scheduled to fire, or last
// fired once it is done; -1 once its slot holds a later timer.
func (e *Engine) When(tm Timer) Time {
	if s := e.live(tm); s != nil {
		return s.at
	}
	return -1
}

// release frees slot i for reuse.
func (e *Engine) release(i int32) {
	e.slots[i].fn = nil
	e.free = append(e.free, i)
}

// push queues slot i's firing at t under the next sequence number.
func (e *Engine) push(t Time, i int32) {
	if e.seq == math.MaxUint32 {
		e.renumber()
	}
	e.queue = append(e.queue, event{at: t, seq: e.seq, slot: i})
	e.seq++
	e.up(len(e.queue) - 1)
}

// renumber relabels the queued events 0, 1, … in their (at, seq)
// order and draws the next sequence numbers after them. The relabeling
// keeps every pair's order, so the heap stays a heap and no tie is
// decided differently; it lets a 32-bit seq outlast 2^32 schedulings.
func (e *Engine) renumber() {
	order := make([]int32, len(e.queue))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := e.queue[a], e.queue[b]
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.seq, y.seq))
	})
	for rank, i := range order {
		e.queue[i].seq = uint32(rank)
	}
	e.seq = uint32(len(order))
}

// up restores the heap after the entry at i got earlier.
func (e *Engine) up(i int) {
	q, x := e.queue, e.queue[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
}

// pop removes the earliest entry.
func (e *Engine) pop() {
	n := len(e.queue) - 1
	q, x := e.queue[:n], e.queue[n]
	e.queue = q
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = x
}

// fire executes the earliest pending event if it is due by until and
// reports whether it did. Stopped one-shot timers at the head of the
// queue are discarded on the way, whatever their time; a stopped
// periodic timer's queued firing is an event (see Stop). A one-shot
// timer's slot is released before its callback runs, a periodic
// one's once it is stopped.
func (e *Engine) fire(until Time) bool {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		s := e.slots[ev.slot]
		dead := s.fn == nil && s.interval == 0
		if !dead && ev.at > until {
			break
		}
		e.pop()
		if dead {
			e.release(ev.slot)
			continue
		}
		e.now = ev.at
		e.processed++
		if s.interval == 0 {
			e.release(ev.slot)
		}
		if s.fn != nil {
			e.arg = s.arg
			s.fn()
		}
		if s.interval > 0 {
			if p := &e.slots[ev.slot]; p.fn == nil { // the slab may have moved
				e.release(ev.slot)
			} else {
				p.at = e.now + p.interval
				e.push(p.at, ev.slot)
			}
		}
		return true
	}
	return false
}

// Step executes the earliest pending event. It returns false when
// the queue is empty. Stopped one-shot timers are discarded without
// counting as processed.
func (e *Engine) Step() bool { return e.fire(math.MaxInt64) }

// Halt makes Run return before processing the next event. Intended
// for callbacks that detect a terminal condition.
func (e *Engine) Halt() { e.halted = true }

// Run processes events in timestamp order until the queue is empty
// or the next event is later than until; the clock then advances to
// until. It returns the number of callbacks executed.
func (e *Engine) Run(until Time) uint64 {
	if until < e.now {
		panic(fmt.Sprintf("sim: Run until %v before now %v", until, e.now))
	}
	start := e.processed
	e.halted = false
	for !e.halted && e.fire(until) {
	}
	if !e.halted {
		e.now = until
	}
	return e.processed - start
}

// RunAll drains the queue completely. Use only in tests and examples
// where the event population is known finite.
func (e *Engine) RunAll() uint64 {
	start := e.processed
	for e.Step() {
	}
	return e.processed - start
}
