//go:build race

package wire_test

// raceEnabled: allocation-budget tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
