//go:build race

package index

// raceEnabled: allocation-budget tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
