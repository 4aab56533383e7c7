//go:build race

package serve

// raceEnabled: allocation-budget tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
