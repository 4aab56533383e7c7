// Package memtest measures what a call allocates, for the allocation
// budget tests.
package memtest

import (
	"math"
	"runtime"
	"runtime/debug"
	"time"
)

// PerCall returns the bytes and the allocations one call of fn takes:
// per call, the fewest over windows windows of runs calls each.
//
// runtime.MemStats counts the whole process, and the runtime allocates
// on other goroutines too: the unique package's map cleanup after
// every GC cycle, a sleeping goroutine's timer heap, a blocking one's
// wait record. Each window starts after a collection and the moment
// the cleanup takes, and no collection runs inside it. The fewest over
// several windows also drops the rest, but is the cost of fn only when
// every call does the same work; with one window, PerCall returns the
// mean over runs calls.
func PerCall(windows, runs int, fn func()) (bytes, allocs float64) {
	bytes, allocs = math.Inf(1), math.Inf(1)
	for range windows {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		gcPercent := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fn()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gcPercent)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
	}
	return bytes, allocs
}
