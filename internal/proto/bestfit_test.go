package proto

import (
	"testing"

	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// TestBestFit pins the referee's definition on a hand-checked case:
// an expired best fit and a non-dominating record drop out, an exact
// surplus tie goes to the lower id, and two holders ranked into one
// answer are ordered across holders the same way.
func TestBestFit(t *testing.T) {
	scale := vector.Of(10, 10)
	demand := vector.Of(4, 4)
	a := []Record{
		{Node: 0, Avail: vector.Of(5, 5), Expires: 10},      // the best fit, expired at 10
		{Node: 1, Avail: vector.Of(6, 7), Expires: 1 << 40}, // ties node 2 and b's node 0
		{Node: 2, Avail: vector.Of(7, 6), Expires: 1 << 40},
		{Node: 3, Avail: vector.Of(3, 9), Expires: 1 << 40}, // does not dominate
	}
	b := []Record{
		{Node: 0, Avail: vector.Of(6, 7), Expires: 1 << 40},
		{Node: 1, Avail: vector.Of(9, 9), Expires: 1 << 40},
	}
	fits := BestFit(nil, a, sim.Time(10), 0, demand, scale, 3)
	fits = BestFit(fits, b, sim.Time(0), 1<<32, demand, scale, 3)
	want := []uint64{1, 2, 1 << 32}
	if len(fits) != len(want) {
		t.Fatalf("%d fits, want %d: %+v", len(fits), len(want), fits)
	}
	for i, f := range fits {
		if f.ID != want[i] || f.Surplus != f.Avail.Surplus(demand, scale) {
			t.Fatalf("fit %d = %+v, want id %d with its exact surplus", i, f, want[i])
		}
	}
	if all := BestFit(nil, a, sim.Time(9), 0, demand, scale, 0); len(all) != 3 || all[0].ID != 0 {
		t.Fatalf("k = 0 before the expiry: %+v, want the three dominating records, node 0 first", all)
	}
}
