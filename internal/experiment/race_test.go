//go:build race

package experiment

// raceEnabled: TestFiguresGolden skips itself under the race detector,
// which makes its simulations several times slower.
const raceEnabled = true
