//go:build race

package overlay

// raceEnabled: allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
