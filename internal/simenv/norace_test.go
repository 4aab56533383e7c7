//go:build !race

package simenv_test

const raceEnabled = false
