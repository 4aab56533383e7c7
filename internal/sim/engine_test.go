package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Seconds(1.5) != 1500*Millisecond {
		t.Errorf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if got := (2 * Hour).Hours(); got != 2 {
		t.Errorf("Hours = %v", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds = %v", got)
	}
	if Day != 86400*Second {
		t.Error("Day constant wrong")
	}
	if (1 * Second).String() != "1.000s" {
		t.Errorf("String = %q", (1 * Second).String())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30*Second, func() { got = append(got, 3) })
	e.At(10*Second, func() { got = append(got, 1) })
	e.At(20*Second, func() { got = append(got, 2) })
	e.Run(1 * Minute)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if e.Now() != 1*Minute {
		t.Errorf("Now = %v, want 1m", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Second, func() { got = append(got, i) })
	}
	e.Run(5 * Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := New()
	var at Time
	e.After(3*Second, func() {
		at = e.Now()
		e.After(2*Second, func() { at = e.Now() })
	})
	e.Run(10 * Second)
	if at != 5*Second {
		t.Errorf("nested After fired at %v, want 5s", at)
	}
}

func TestStopTimer(t *testing.T) {
	e := New()
	fired := false
	tm := e.At(1*Second, func() { fired = true })
	e.Stop(tm)
	if !e.Stopped(tm) {
		t.Error("Stopped() = false after Stop")
	}
	e.Run(2 * Second)
	if fired {
		t.Error("stopped timer fired")
	}
	if e.Processed() != 0 {
		t.Errorf("Processed = %d, want 0", e.Processed())
	}
}

func TestEvery(t *testing.T) {
	e := New()
	var times []Time
	tm := e.Every(1*Second, 2*Second, func() { times = append(times, e.Now()) })
	e.Run(6 * Second)
	want := []Time{1 * Second, 3 * Second, 5 * Second}
	if len(times) != len(want) {
		t.Fatalf("fired %d times: %v", len(times), times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, times[i], want[i])
		}
	}
	e.Stop(tm)
	e.Run(20 * Second)
	if len(times) != len(want) {
		t.Error("periodic timer fired after Stop")
	}
}

func TestEveryStopFromInside(t *testing.T) {
	e := New()
	count := 0
	var tm Timer
	tm = e.Every(1*Second, 1*Second, func() {
		count++
		if count == 3 {
			e.Stop(tm)
		}
	})
	e.Run(10 * Second)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestRunBoundary(t *testing.T) {
	e := New()
	fired := false
	e.At(10*Second, func() { fired = true })
	e.Run(9 * Second)
	if fired {
		t.Error("event after boundary fired")
	}
	if e.Now() != 9*Second {
		t.Errorf("Now = %v", e.Now())
	}
	e.Run(10 * Second) // inclusive boundary
	if !fired {
		t.Error("event at boundary did not fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(5*Second, func() {})
	e.Run(5 * Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.At(1*Second, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.After(-1, func() {})
}

func TestBadIntervalPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Every(0, 0, func() {})
}

func TestHalt(t *testing.T) {
	e := New()
	count := 0
	e.At(1*Second, func() { count++; e.Halt() })
	e.At(2*Second, func() { count++ })
	e.Run(10 * Second)
	if count != 1 {
		t.Errorf("count = %d, want 1 (halted)", count)
	}
	if e.Now() != 1*Second {
		t.Errorf("halted Now = %v, want 1s", e.Now())
	}
	// Resume.
	e.Run(10 * Second)
	if count != 2 {
		t.Errorf("count after resume = %d, want 2", count)
	}
}

func TestRunAll(t *testing.T) {
	e := New()
	count := 0
	e.At(1*Second, func() {
		count++
		e.After(1*Second, func() { count++ })
	})
	if n := e.RunAll(); n != 2 || count != 2 {
		t.Errorf("RunAll = %d, count = %d", n, count)
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d", e.Pending())
	}
}

// Property: with random scheduling, callbacks observe a non-decreasing
// clock and fire exactly once each.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		n := 50 + r.Intn(100)
		fired := make([]int, 0, n)
		times := make([]Time, n)
		for i := 0; i < n; i++ {
			times[i] = Time(r.Int63n(int64(Hour)))
			i := i
			e.At(times[i], func() { fired = append(fired, i) })
		}
		e.Run(Hour)
		if len(fired) != n {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		last := Time(-1)
		seen := make(map[int]bool)
		for _, i := range fired {
			if seen[i] {
				return false
			}
			seen[i] = true
			if times[0] > last {
				_ = last
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: events scheduled from inside callbacks still fire in
// global timestamp order.
func TestNestedSchedulingOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		var clock []Time
		record := func() { clock = append(clock, e.Now()) }
		var spawn func(depth int)
		spawn = func(depth int) {
			record()
			if depth < 3 {
				for i := 0; i < 2; i++ {
					e.After(Time(r.Int63n(int64(Minute))), func() { spawn(depth + 1) })
				}
			}
		}
		e.At(0, func() { spawn(0) })
		e.Run(Hour)
		for i := 1; i < len(clock); i++ {
			if clock[i] < clock[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			e.After(1, next)
		}
	}
	e.After(1, next)
	b.ResetTimer()
	e.Run(Time(b.N + 10))
}

func BenchmarkEngineMixedQueue(b *testing.B) {
	// Heap behavior with a standing population of future events.
	e := New()
	for i := 0; i < 10000; i++ {
		e.At(Day+Time(i), func() {})
	}
	count := 0
	var next func()
	next = func() {
		count++
		if count < b.N {
			e.After(1, next)
		}
	}
	e.After(1, next)
	b.ResetTimer()
	e.Run(Day - 1)
}
