package bench

import (
	"math"
	"slices"
)

// tailCandidates are the percentiles a timing may report as its tail,
// highest first.
var tailCandidates = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported
// percentile: with fewer, the value is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that leaves
// at least minBeyond of n samples beyond it, or 50 when none does.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n-1-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// rank is the index of percentile p in n ascending samples
// (nearest-rank definition).
func rank(n int, p float64) int {
	i := int(math.Ceil(p*float64(n)/100)) - 1 // p·n first: both are whole, so the product is exact
	return min(max(i, 0), n-1)
}

// chunks is how many consecutive parts of the window a latency
// distribution is summarised in. The reported median and tail are the
// middle chunk's, so a disturbance confined to a few seconds (a
// neighbour on the shared host, a compaction) does not set the tail of
// the whole run.
const chunks = 3

// Timing summarises one latency distribution: N samples in all, P50
// and Tail the median over the chunks of each chunk's median and
// TailP-th percentile — the highest percentile every chunk's sample
// count supports.
type Timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailP float64 `json:"tail_p"`
}

// summarize takes each caller's latencies in completion order, cuts
// every caller's into chunks equal parts (callers run at a steady rate,
// so equal parts are equal stretches of the window), pools each part
// across callers, and reports in the unit given by div (1e3: µs from
// ns).
func summarize(perCaller [][]int64, div float64) Timing {
	var pooled [chunks][]int64
	n := 0
	for _, ns := range perCaller {
		n += len(ns)
		for c := range chunks {
			pooled[c] = append(pooled[c], ns[len(ns)*c/chunks:len(ns)*(c+1)/chunks]...)
		}
	}
	t := Timing{N: n, TailP: 99}
	for _, ns := range pooled {
		if len(ns) == 0 {
			return Timing{N: n} // too few samples to say anything
		}
		slices.Sort(ns)
		t.TailP = min(t.TailP, tailPercentile(len(ns)))
	}
	var p50s, tails []float64
	for _, ns := range pooled {
		p50s = append(p50s, float64(ns[rank(len(ns), 50)])/div)
		tails = append(tails, float64(ns[rank(len(ns), t.TailP)])/div)
	}
	t.P50, t.Tail = median(p50s), median(tails)
	return t
}

// median returns the median of xs (mean of the middle pair for even
// counts), 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func medianNs(ns []int64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v)
	}
	return median(xs)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
