package index

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// history drives one seeded random sequence of update/join/leave
// batches over a population, keeping the records a from-scratch Build
// would be given.
type history struct {
	rng  *rand.Rand
	cmax vector.Vec
	now  sim.Time
	recs []proto.Record // ascending by node
	next overlay.NodeID
}

// avail draws an availability: half the time from a three-point grid
// per dimension, so that many records share a score exactly (the first
// two dimensions have the same cmax, so distinct vectors tie too).
func (h *history) avail() vector.Vec {
	a := vector.New(h.cmax.Dim())
	grid := h.rng.Intn(2) == 0
	for d := range a {
		if grid {
			a[d] = h.cmax[d] * float64(h.rng.Intn(3)) / 2
		} else {
			a[d] = h.cmax[d] * h.rng.Float64()
		}
	}
	return a
}

func (h *history) record(id overlay.NodeID) proto.Record {
	r := proto.Record{Node: id, Avail: h.avail(), Stored: h.now, Expires: never}
	switch h.rng.Intn(4) {
	case 0:
		r.Expires = h.now - sim.Time(h.rng.Intn(50)) // already expired
	case 1:
		r.Expires = h.now + 1 + sim.Time(h.rng.Intn(100))
	}
	return r
}

// batch applies b operations — a join with probability grow, else a
// leave or a re-advertisement of a random node — and returns the
// argument pair a caller hands Update: the surviving dirty records
// ascending by node, and the dirty set.
func (h *history) batch(b int, grow float64) ([]proto.Record, map[overlay.NodeID]bool) {
	h.now += 10
	dirty := map[overlay.NodeID]bool{}
	for range b {
		switch p := h.rng.Float64(); {
		case p < grow || len(h.recs) == 0:
			// Mostly fresh ids at the top, sometimes one in the middle
			// of the id range (a restored or migrated-back node).
			id := h.next
			h.next += 2
			if h.rng.Intn(4) == 0 && len(h.recs) > 0 {
				id = h.recs[h.rng.Intn(len(h.recs))].Node + 1
			}
			if i, ok := h.find(id); !ok {
				h.recs = slices.Insert(h.recs, i, h.record(id))
				dirty[id] = true
			}
		case p < grow+(1-grow)/2:
			i := h.rng.Intn(len(h.recs))
			dirty[h.recs[i].Node] = false
			h.recs = slices.Delete(h.recs, i, i+1)
		default:
			i := h.rng.Intn(len(h.recs))
			h.recs[i] = h.record(h.recs[i].Node)
			dirty[h.recs[i].Node] = true
		}
	}
	var add []proto.Record
	for id := range dirty {
		if i, ok := h.find(id); ok {
			add = append(add, h.recs[i])
		}
	}
	sort.Slice(add, func(i, j int) bool { return add[i].Node < add[j].Node })
	return add, dirty
}

func (h *history) find(id overlay.NodeID) (int, bool) {
	return slices.BinarySearchFunc(h.recs, id, func(r proto.Record, id overlay.NodeID) int { return int(r.Node - id) })
}

func (h *history) demand() vector.Vec {
	if len(h.recs) > 0 && h.rng.Intn(2) == 0 {
		// A record's own availability: score == D boundary hits.
		return h.recs[h.rng.Intn(len(h.recs))].Avail.Clone()
	}
	w := vector.New(h.cmax.Dim())
	for d := range w {
		w[d] = h.cmax[d] * h.rng.Float64() * 0.8
	}
	return w
}

// hit is a Search entry resolved through NodeAt/Row.
type hit struct {
	node overlay.NodeID
	row  string
}

func resolve(f *Flat, entries []int32) []hit {
	out := make([]hit, len(entries))
	for i, e := range entries {
		out[i] = hit{f.NodeAt(e), fmt.Sprint(f.Row(e))}
	}
	return out
}

// checkSame asserts that got (an Update chain) answers like want (a
// Build of the same records) and like the brute-force ranking, and
// that everything else read off it is what the records say.
func checkSame(t *testing.T, h *history, got, want *Flat, queries int) {
	t.Helper()
	for q := range queries {
		demand, k := h.demand(), h.rng.Intn(8)
		ge, gv := got.Search(nil, demand, h.now, k)
		we, wv := want.Search(nil, demand, h.now, k)
		// The two cut their blocks at different entries, and a scan stops
		// at a hopeless tail only between blocks: the counts may differ by
		// what one block holds, the answers not at all.
		if d := gv - wv; d > blockCap || d < -blockCap {
			t.Fatalf("q %d: Update chain visited %d entries, Build %d", q, gv, wv)
		}
		if g, w := resolve(got, ge), resolve(want, we); !slices.Equal(g, w) {
			t.Fatalf("q %d: Update chain returned %v, Build %v", q, g, w)
		}
		brute := bruteTopK(h.recs, demand, h.cmax, h.now, k)
		if ranked := rankReturned(got, ge, demand, h.cmax, k); !slices.Equal(ranked, brute) {
			t.Fatalf("q %d (k=%d): ranked %v, brute force %v", q, k, ranked, brute)
		}
	}
	if got.Len() != len(h.recs) {
		t.Fatalf("Len = %d, want %d", got.Len(), len(h.recs))
	}
	recs := got.Records()
	if len(recs) != len(h.recs) {
		t.Fatalf("Records has %d records, want %d", len(recs), len(h.recs))
	}
	m, wantMax := vector.New(h.cmax.Dim()), vector.New(h.cmax.Dim())
	got.RaiseMax(m)
	ids := got.Nodes(nil)
	for i, w := range h.recs {
		if g := recs[i]; g.Node != w.Node || !g.Avail.Equal(w.Avail) || g.Stored != w.Stored || g.Expires != w.Expires {
			t.Fatalf("Records[%d] = %+v, want %+v", i, g, w)
		}
		if ids[i] != w.Node {
			t.Fatalf("Nodes[%d] = %d, want %d", i, ids[i], w.Node)
		}
		for d, v := range w.Avail {
			wantMax[d] = max(wantMax[d], v)
		}
	}
	if !m.Equal(wantMax) {
		t.Fatalf("RaiseMax = %v, want %v", m, wantMax)
	}
	for _, seq := range [][]*block{got.blocks, got.byNode} {
		for i, b := range seq {
			if n := len(b.nodes); n > blockCap || n == 0 || (n < minFill && i+1 < len(seq)) {
				t.Fatalf("block %d of %d holds %d entries", i, len(seq), n)
			}
		}
	}
}

// TestUpdateMatchesBuild is the copy-on-write property test: over
// seeded random histories whose populations grow through block splits,
// shrink through merges down to nothing and come back, with score
// ties and finite expiries, the index an Update chain arrives at must
// answer every Search exactly like a Build from scratch of the same
// records — same resolved entries, visited counts within a block of
// each other — and both like the brute-force top-k.
func TestUpdateMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h := &history{rng: rand.New(rand.NewSource(seed)), cmax: vector.Of(8, 8, 5), now: 500}
		f := Build(nil, h.cmax)
		step := func(b int, grow float64) {
			t.Helper()
			add, dirty := h.batch(b, grow)
			f = f.Update(add, dirty)
			checkSame(t, h, f, Build(h.recs, h.cmax), 6)
		}
		// empty -> 1 -> empty, one node at a time.
		step(1, 1)
		for len(h.recs) > 0 {
			step(1, 0)
		}
		if f.Len() != 0 || len(f.blocks) != 0 || len(f.byNode) != 0 {
			t.Fatalf("seed %d: emptied index holds %d records in %d blocks", seed, f.Len(), len(f.blocks))
		}
		sizes := []int{1, 7, 64}
		for len(h.recs) < 5*blockCap { // grow across several splits
			step(sizes[h.rng.Intn(3)], 0.7)
		}
		for range 20 {
			step(len(h.recs)/2, 0.33) // half the population dirty
		}
		for len(h.recs) > 0 { // shrink across merges, to nothing
			step(sizes[h.rng.Intn(3)], 0.05)
		}
		for len(h.recs) < blockCap+10 {
			step(7, 0.9)
		}
	}
}

// TestVersionsPersist: a version is never changed by what is derived
// from it. An old version answers after 100 later updates what it
// answered before them, and two updates of the same old version give
// two independent, correct indexes.
func TestVersionsPersist(t *testing.T) {
	h := &history{rng: rand.New(rand.NewSource(11)), cmax: vector.Of(8, 8, 5), now: 500}
	add, dirty := h.batch(3*blockCap, 1)
	old := Build(nil, h.cmax).Update(add, dirty)
	oldRecs, oldNow := slices.Clone(h.recs), h.now

	type answer struct {
		demand  vector.Vec
		k       int
		hits    []hit
		visited int
	}
	var before []answer
	for range 50 {
		a := answer{demand: h.demand(), k: h.rng.Intn(8)}
		e, v := old.Search(nil, a.demand, oldNow, a.k)
		a.hits, a.visited = resolve(old, e), v
		before = append(before, a)
	}
	f := old
	for range 100 {
		add, dirty := h.batch(1+h.rng.Intn(20), 0.4)
		f = f.Update(add, dirty)
	}
	checkSame(t, h, f, Build(h.recs, h.cmax), 20)
	for i, a := range before {
		e, v := old.Search(nil, a.demand, oldNow, a.k)
		if v != a.visited || !slices.Equal(resolve(old, e), a.hits) {
			t.Fatalf("query %d on the old version changed after 100 later updates", i)
		}
	}

	// Two different batches off the same old version.
	for fork := range 2 {
		fh := &history{rng: rand.New(rand.NewSource(int64(20 + fork))), cmax: h.cmax, now: oldNow,
			recs: slices.Clone(oldRecs), next: h.next + 1000}
		add, dirty := fh.batch(40, 0.4)
		checkSame(t, fh, old.Update(add, dirty), Build(fh.recs, fh.cmax), 20)
	}
	oh := &history{rng: h.rng, cmax: h.cmax, now: oldNow, recs: oldRecs}
	checkSame(t, oh, old, Build(oldRecs, h.cmax), 20)
}

// population is n records with dense ids and uniform availabilities.
func population(rng *rand.Rand, n int, cmax vector.Vec) []proto.Record {
	recs := make([]proto.Record, n)
	for i := range recs {
		a := vector.New(cmax.Dim())
		for d := range a {
			a[d] = cmax[d] * rng.Float64()
		}
		recs[i] = proto.Record{Node: overlay.NodeID(i), Avail: a, Expires: never}
	}
	return recs
}

var benchCMax = vector.Of(25.6, 80, 10, 240, 4096)

// updater re-advertises b random nodes of an n-record index per call.
func updater(n, b int) (f *Flat, update func()) {
	rng := rand.New(rand.NewSource(5))
	recs := population(rng, n, benchCMax)
	f = Build(recs, benchCMax)
	add, dirty := make([]proto.Record, 0, b), map[overlay.NodeID]bool{}
	return f, func() {
		add = add[:0]
		clear(dirty)
		for len(dirty) < b {
			dirty[overlay.NodeID(rng.Intn(n))] = true
		}
		for id := range dirty {
			r := recs[id]
			r.Avail = r.Avail.Clone()
			r.Avail[rng.Intn(len(r.Avail))] *= rng.Float64()
			add = append(add, r)
		}
		slices.SortFunc(add, func(a, b proto.Record) int { return int(a.Node - b.Node) })
		f = f.Update(add, dirty)
	}
}

// TestUpdateAllocationIsNotPerRecord: what a one-node Update allocates
// must not follow the population — ten times the records, at most
// twice the bytes (the directories are the part that grows).
func TestUpdateAllocationIsNotPerRecord(t *testing.T) {
	perUpdate := func(n int) float64 {
		_, update := updater(n, 1)
		for range 200 { // past the splits of the freshly built, full blocks
			update()
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			update()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perUpdate(2500), perUpdate(25000)
	t.Logf("one-node Update allocates %.0f B at n=2500, %.0f B at n=25000", small, large)
	if large > 2*small {
		t.Fatalf("one-node Update allocates %.0f B at n=25000, more than twice the %.0f B at n=2500", large, small)
	}
}

func BenchmarkFlatUpdate(b *testing.B) {
	for _, n := range []int{2500, 25000} {
		for _, dirty := range []int{1, 64} {
			b.Run(fmt.Sprintf("n=%d/b=%d", n, dirty), func(b *testing.B) {
				_, update := updater(n, dirty)
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					update()
				}
			})
		}
	}
}

func BenchmarkFlatSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	f := Build(population(rng, 25000, benchCMax), benchCMax)
	demands := make([]vector.Vec, 1024)
	for i := range demands {
		demands[i] = vector.New(benchCMax.Dim())
		for d := range demands[i] {
			demands[i][d] = benchCMax[d] * rng.Float64() * 0.6
		}
	}
	var buf [8]int32
	visited := 0
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		_, v := f.Search(buf[:0], demands[i%len(demands)], 0, 3)
		visited += v
		i++
	}
	b.ReportMetric(float64(visited)/float64(i), "visited/op")
}
