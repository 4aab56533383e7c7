//go:build race

package pidcan

// raceEnabled: allocation-count and heap-budget tests skip themselves
// under the race detector, whose instrumentation allocates.
const raceEnabled = true
