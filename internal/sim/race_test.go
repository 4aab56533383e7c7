//go:build race

package sim

// raceEnabled: allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
