package index

import (
	"math"
	"math/rand"
	"testing"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/vector"
)

// TestSignatureNeverRejectsAMatch is the one property the scan's
// filter has to have: whenever an availability dominates a demand, its
// signature passes the demand's. Over 1 to 10 dimensions (more than a
// signature has lanes), unscored dimensions, values above cmax, and
// demands built from the availability itself: equal to it, one ulp
// either side, a fraction of it, zero and negative zero. On either
// scan kernel.
func TestSignatureNeverRejectsAMatch(t *testing.T) { eachKernel(t, signatureNeverRejectsAMatch) }

func signatureNeverRejectsAMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dominated, passed := 0, 0
	for trial := range 400 {
		dims := 1 + trial%10
		cmax := vector.New(dims)
		for d := range cmax {
			if cmax[d] = 0.01 + 4000*rng.Float64(); rng.Intn(5) == 0 {
				cmax[d] = 0 // unscored
			}
		}
		f := Build(nil, cmax)
		for range 500 {
			avail, demand := vector.New(dims), vector.New(dims)
			for d := range avail {
				unit := cmax[d]
				if unit == 0 {
					unit = 7
				}
				switch avail[d] = unit * 1.5 * rng.Float64(); rng.Intn(8) {
				case 0:
					avail[d] = 0
				case 1:
					avail[d] = math.Copysign(0, -1)
				case 2:
					avail[d] = unit // exactly the scale
				}
				switch rng.Intn(8) {
				case 0:
					demand[d] = avail[d]
				case 1:
					demand[d] = math.Nextafter(avail[d], math.Inf(-1))
				case 2:
					demand[d] = math.Nextafter(avail[d], math.Inf(1))
				case 3:
					demand[d] = 0
				case 4:
					demand[d] = math.Copysign(0, -1)
				case 5:
					demand[d] = unit * 1.5 * rng.Float64()
				default:
					demand[d] = avail[d] * rng.Float64()
				}
			}
			have, want := f.signature(avail, true), f.signature(demand, false)
			if (have|want)&lanes != 0 {
				t.Fatalf("cmax %v: signatures %#x of %v, %#x of %v use a lane's spare bit", cmax, have, avail, want, demand)
			}
			pass := passing([]uint64{have}, want) == 0
			if pass {
				passed++
			}
			if avail.Dominates(demand) {
				if dominated++; !pass {
					t.Fatalf("cmax %v: %v dominates %v, but signature %#x does not pass %#x", cmax, avail, demand, have, want)
				}
			}
		}
	}
	// Both outcomes must have been exercised for the property to mean
	// anything: matches, and pairs the filter rejects.
	if total := 400 * 500; dominated < total/20 || passed > total*9/10 {
		t.Fatalf("%d of %d pairs dominated, %d passed the filter: the generator is not exercising both sides", dominated, total, passed)
	}
}

// TestSignatureDoesTheRejecting: on a uniform five-dimension
// population, nearly every visited entry that is not a match must be
// turned away by the signature compare alone, without its availability
// row being read — the filter is what makes a visit cheap, the exact
// test only decides the few that pass it.
func TestSignatureDoesTheRejecting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := Build(population(rng, 20000, benchCMax), benchCMax)
	visited, passes, matches := 0, 0, 0
	for range 200 {
		demand := vector.New(benchCMax.Dim())
		for d := range demand {
			demand[d] = benchCMax[d] * rng.Float64() * 0.6
		}
		var scratch [8]float64
		bound := NewBound(3, nil, scratch[:])
		for c := f.Seek(demand); !c.Done(); {
			b, lo := f.blocks[c.bi], int(c.lo)
			got, n := c.Step(nil, &bound)
			for _, sig := range b.sig[lo : lo+n] {
				passes += 1 - passing([]uint64{sig}, c.sig)
			}
			visited, matches = visited+n, matches+len(got)
		}
	}
	misses, rejected := visited-matches, visited-passes
	t.Logf("%d visited, %d matches; the signature rejected %d of %d non-matches (%.2f%%)",
		visited, matches, rejected, misses, 100*float64(rejected)/float64(misses))
	if matches == 0 || rejected*100 < misses*99 {
		t.Fatalf("the signature rejected %d of %d visited non-matches, want at least 99%%", rejected, misses)
	}
}

// A fuzz input is a search case on a byte grid: byte 0 the number of
// dimensions (1-10), byte 1 k (0-11), then one byte per dimension of
// cmax (0-32, 0 unscored), one per dimension of the demand, and
// dims per record: its availability. A value byte
// b is b/128 of the dimension's cmax, so values reach past cmax, and
// availabilities, demands and scores tie exactly all the time.
const fuzzRecords = 600 // several blocks

func fuzzValue(cmax float64, b byte) float64 {
	if cmax == 0 {
		cmax = 4
	}
	return cmax * float64(b) / 128
}

func fuzzByte(cmax, v float64) byte {
	if cmax == 0 {
		cmax = 4
	}
	return byte(min(math.Round(v/cmax*128), 255))
}

func decodeSearchCase(data []byte) (cmax vector.Vec, recs []proto.Record, demand vector.Vec, k int, ok bool) {
	if len(data) < 2 {
		return nil, nil, nil, 0, false
	}
	dims, k := 1+int(data[0])%10, int(data[1])%12
	if data = data[2:]; len(data) < 2*dims {
		return nil, nil, nil, 0, false
	}
	cmax, demand = vector.New(dims), vector.New(dims)
	for d := range cmax {
		cmax[d] = float64(data[d] % 33)
		demand[d] = fuzzValue(cmax[d], data[dims+d])
	}
	for data = data[2*dims:]; len(data) >= dims && len(recs) < fuzzRecords; data = data[dims:] {
		r := proto.Record{Node: overlay.NodeID(2 * len(recs)), Avail: vector.New(dims), Expires: never}
		for d := range r.Avail {
			r.Avail[d] = fuzzValue(cmax[d], data[d])
		}
		recs = append(recs, r)
	}
	return cmax, recs, demand, k, true
}

// encodeSearchCase is decodeSearchCase's inverse up to the grid:
// every value rounds to its nearest byte.
func encodeSearchCase(cmax vector.Vec, recs []proto.Record, demand vector.Vec, k int) []byte {
	out := []byte{byte(cmax.Dim() - 1), byte(k)}
	for _, c := range cmax {
		out = append(out, byte(math.Round(c)))
	}
	for d, w := range demand {
		out = append(out, fuzzByte(math.Round(cmax[d]), w))
	}
	for _, r := range recs {
		for d, v := range r.Avail {
			out = append(out, fuzzByte(math.Round(cmax[d]), v))
		}
	}
	return out
}

// FuzzSearchMatchesLinear holds Search to the brute-force ranking on
// whatever population, scale, demand and k the bytes spell. The seed
// corpus is drawn the way TestSearchMatchesLinear draws its cases,
// plus one population of several blocks.
func FuzzSearchMatchesLinear(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for seed := range 16 {
		dims := 1 + rng.Intn(4)
		cmax := vector.New(dims)
		for d := range cmax {
			cmax[d] = 1 + 20*rng.Float64()
		}
		if rng.Intn(6) == 0 {
			cmax[rng.Intn(dims)] = 0
		}
		n := rng.Intn(120)
		if seed == 0 {
			n = 4 * blockCap
		}
		recs := randPopulation(rng, n, cmax)
		demand := vector.New(dims)
		for d := range demand {
			demand[d] = cmax[d] * rng.Float64() * 0.9
		}
		if rng.Intn(2) == 0 && len(recs) > 0 {
			demand = recs[rng.Intn(len(recs))].Avail
		}
		f.Add(encodeSearchCase(cmax, recs, demand, rng.Intn(12)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cmax, recs, demand, k, ok := decodeSearchCase(data)
		if !ok {
			return
		}
		flat := Build(recs, cmax)
		got, visited := flat.Search(nil, demand, k)
		if visited > len(recs) {
			t.Fatalf("visited %d of %d records", visited, len(recs))
		}
		want := bruteTopK(recs, demand, cmax, k)
		ranked := rankReturned(flat, got, demand, cmax, k)
		if len(ranked) != len(want) {
			t.Fatalf("cmax %v demand %v k %d: ranked %v, brute force %v", cmax, demand, k, ranked, want)
		}
		for i := range want {
			if ranked[i] != want[i] {
				t.Fatalf("cmax %v demand %v k %d: ranked %v, brute force %v", cmax, demand, k, ranked, want)
			}
		}
	})
}
