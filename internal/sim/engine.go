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
// A timer, periodic ones included, is the heap entry it occupies: a
// periodic timer is re-pushed after each firing under a sequence
// number drawn then, as if its callback had ended by calling At.
package sim

import (
	"container/heap"
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

// Timer is a handle to a scheduled event, and the event itself. Stop
// cancels it; a stopped timer's callback never runs. Timers are
// single-use unless created by Every.
type Timer struct {
	at       Time
	seq      uint64
	fn       func()
	interval Time // > 0: periodic, re-pushed after each firing
	stopped  bool
	arg      int32 // Engine.Arg while fn runs
	index    int   // heap index, -1 once popped
}

// Stop cancels the timer. It is safe to call multiple times and
// after the timer fired. A stopped one-shot timer leaves the queue
// unseen. A periodic timer stopped between firings keeps the firing
// it has queued: that one advances the clock to its time, counts in
// Processed, runs nothing, and is its last.
func (tm *Timer) Stop() { tm.stopped = true }

// Stopped reports whether Stop was called.
func (tm *Timer) Stopped() bool { return tm.stopped }

// When returns the scheduled firing time.
func (tm *Timer) When() Time { return tm.at }

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	tm := x.(*Timer)
	tm.index = len(*h)
	*h = append(*h, tm)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	tm := old[n-1]
	old[n-1] = nil
	tm.index = -1
	*h = old[:n-1]
	return tm
}

// Engine is a discrete-event simulator. The zero value is not usable;
// call New.
type Engine struct {
	now       Time
	seq       uint64
	events    eventHeap
	processed uint64
	halted    bool
	arg       int32
}

// New returns an engine at time 0 with an empty event queue.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Grow reserves queue room for n more events, so a caller about to
// schedule a known number of them pushes without re-copying the heap.
func (e *Engine) Grow(n int) { e.events = slices.Grow(e.events, n) }

// Pending returns the number of scheduled (possibly stopped) events.
func (e *Engine) Pending() int { return len(e.events) }

// Arg returns the arg of the timer whose callback is running (see
// EveryArg); 0 for timers made without one.
func (e *Engine) Arg() int32 { return e.arg }

// Processed returns the number of callbacks executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a logic error in a protocol.
func (e *Engine) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	tm := &Timer{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.events, tm)
	return tm
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Every schedules fn to run first at start and then every interval
// until the returned timer is stopped. fn observes the engine clock
// at each firing. The timer stays one queue entry: when fn returns
// it is pushed again at now + interval under a newly drawn sequence
// number, so what fn scheduled for that instant runs first.
func (e *Engine) Every(start, interval Time, fn func()) *Timer {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %v", interval))
	}
	tm := e.At(start, fn)
	tm.interval = interval
	return tm
}

// EveryArg is Every for a callback shared by many timers, which tells
// them apart by Arg: while fn runs for this timer, Arg returns arg.
func (e *Engine) EveryArg(start, interval Time, arg int32, fn func()) *Timer {
	tm := e.Every(start, interval, fn)
	tm.arg = arg
	return tm
}

// fire executes the earliest pending event if it is due by until and
// reports whether it did. Stopped one-shot timers at the head of the
// queue are discarded on the way, whatever their time; a stopped
// periodic timer's queued firing is an event (see Timer.Stop).
func (e *Engine) fire(until Time) bool {
	for len(e.events) > 0 {
		tm := e.events[0]
		dead := tm.stopped && tm.interval == 0
		if !dead && tm.at > until {
			break
		}
		heap.Pop(&e.events)
		if dead {
			continue
		}
		e.now = tm.at
		e.processed++
		if !tm.stopped {
			e.arg = tm.arg
			tm.fn()
		}
		if tm.interval > 0 && !tm.stopped {
			tm.at = e.now + tm.interval
			tm.seq = e.seq
			e.seq++
			heap.Push(&e.events, tm)
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
