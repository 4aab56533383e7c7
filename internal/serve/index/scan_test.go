package index

import (
	"fmt"
	"math/rand"
	"testing"

	"pidcan/internal/vector"
)

// useGeneric forces passing onto passingGeneric for the rest of t.
func useGeneric(t testing.TB) {
	was := useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = was })
}

// eachKernel runs test once per scan kernel: on passingAVX2 where this
// machine has it, and on passingGeneric, which it otherwise never runs.
func eachKernel(t *testing.T, test func(t *testing.T)) {
	if useAVX2 {
		t.Run("kernel=avx2", test)
	}
	t.Run("kernel=generic", func(t *testing.T) {
		useGeneric(t)
		test(t)
	})
}

// passingCase builds n signatures starting off words into their
// backing array, against want (its spare bits cleared): each passes
// with probability share/256 — half of its lanes exactly at want's —
// and otherwise fails in one lane, mostly by one step. With every lane
// of want at 0 all of them pass.
func passingCase(off, n int, want uint64, seed int64, share uint8) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]uint64, off+n)[off:]
	for i := range sigs {
		var sig uint64
		for d := range 8 {
			w := want >> (8 * d) & sigMax
			lane := w
			if rng.Intn(2) == 0 {
				lane += uint64(rng.Int63n(int64(sigMax - w + 1)))
			}
			sig |= lane << (8 * d)
		}
		if rng.Intn(256) >= int(share) {
			d := rng.Intn(8)
			for k := 0; k < 8 && want>>(8*d)&sigMax == 0; k++ {
				d = (d + 1) % 8
			}
			if w := want >> (8 * d) & sigMax; w > 0 {
				lane := w - 1
				if rng.Intn(4) == 0 {
					lane = uint64(rng.Int63n(int64(w)))
				}
				sig = sig&^(0xff<<(8*d)) | lane<<(8*d)
			}
		}
		sigs[i] = sig
	}
	return sigs
}

// FuzzPassing holds passingAVX2 to passingGeneric: the same first
// passing position, or none, for slices of 0 to 2·blockCap signatures
// at any alignment, every suffix and prefix of them up to 16 entries
// shorter included.
func FuzzPassing(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 kernel on this machine")
	}
	const top = 0x7f7f7f7f7f7f7f7f // every lane at sigMax
	for i, c := range []struct {
		off   uint8
		n     uint16
		want  uint64
		share uint8
	}{
		{0, 0, 0, 0}, {1, 1, top, 255}, {0, 15, top, 0}, {3, 16, 0, 0},
		{0, 16, 0x0102030405060708, 4}, {5, 17, top, 16}, {2, 33, 0x7f00007f00000000, 8},
		{0, blockCap, 0x3f3f3f3f3f, 1}, {7, blockCap + 5, top, 2}, {1, 2*blockCap - 1, 0x40, 0},
		{0, 2 * blockCap, 0x101010101010101, 3}, {6, 100, 0x7f7f7f, 64},
	} {
		f.Add(c.off, c.n, c.want, int64(i), c.share)
	}
	f.Fuzz(func(t *testing.T, off uint8, n uint16, want uint64, seed int64, share uint8) {
		want &^= lanes
		sigs := passingCase(int(off%16), int(n)%(2*blockCap+1), want, seed, share)
		for cut := range min(len(sigs), 16) + 1 {
			for _, s := range [][]uint64{sigs[cut:], sigs[:len(sigs)-cut]} {
				if avx2, generic := passingAVX2(s, want), passingGeneric(s, want); avx2 != generic {
					at := min(avx2, generic)
					t.Fatalf("%d signatures, want %#x: the AVX2 kernel returns %d, the generic loop %d; from %d on: %#x",
						len(s), want, avx2, generic, at, s[at:min(len(s), at+4)])
				}
			}
		}
	})
}

// TestSearchAllocations: a Search into a dst with room for its answer
// allocates nothing, on either kernel.
func TestSearchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(5))
	f := Build(population(rng, 25000, benchCMax), benchCMax)
	demands := make([]vector.Vec, 64)
	for i := range demands {
		demands[i] = vector.New(benchCMax.Dim())
		for d := range demands[i] {
			demands[i][d] = benchCMax[d] * rng.Float64() * 0.6
		}
	}
	dst := make([]int32, 0, 1024)
	eachKernel(t, func(t *testing.T) {
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			dst, _ = f.Search(dst[:0], demands[i%len(demands)], 3)
			i++
		}); n != 0 {
			t.Fatalf("a Search into a pre-sized dst allocates %.1f times, want 0", n)
		}
	})
}

// BenchmarkPassing times each kernel over signatures none of which
// passes, in ns per entry: on one block, which stays in L1, and
// streaming over 128k entries.
func BenchmarkPassing(b *testing.B) {
	type kernel struct {
		name string
		scan func([]uint64, uint64) int
	}
	kernels := []kernel{{"generic", passingGeneric}}
	if useAVX2 {
		kernels = append(kernels, kernel{"avx2", passingAVX2})
	}
	// want has five lanes at sigMax; every signature has them even, so
	// under sigMax, and none passes.
	const want = 0x7f7f7f7f7f
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{blockCap, 128 << 10} {
		sigs := make([]uint64, n)
		for i := range sigs {
			sigs[i] = uint64(rng.Int63()) &^ lanes &^ 0x0101010101
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("kernel=%s/n=%d", k.name, n), func(b *testing.B) {
				for b.Loop() {
					if k.scan(sigs, want) != n {
						b.Fatal("a signature passed")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/entry")
			})
		}
	}
}
