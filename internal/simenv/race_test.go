//go:build race

package simenv_test

// raceEnabled: allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
