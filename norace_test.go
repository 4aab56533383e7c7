//go:build !race

package pidcan

const raceEnabled = false
