package index

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"pidcan/internal/memtest"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/vector"
)

// history drives one seeded random sequence of update/join/leave
// batches over a population, keeping the records a from-scratch Build
// would be given.
type history struct {
	rng  *rand.Rand
	cmax vector.Vec
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
	return proto.Record{Node: id, Avail: h.avail(), Expires: never}
}

// batch applies b operations — a join with probability grow, else a
// leave or a re-advertisement of a random node — and returns the
// argument pair a caller hands Update: the surviving dirty records
// ascending by node, and the dirty set.
func (h *history) batch(b int, grow float64) ([]proto.Record, map[overlay.NodeID]bool) {
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

// searchDead is Search, also counting the dead entries of the blocks
// its cursor scans.
func searchDead(f *Flat, demand vector.Vec, k int) (entries []int32, visited, dead int) {
	var scratch [8]float64
	bound := NewBound(k, nil, scratch[:])
	for c := f.Seek(demand); !c.Done(); {
		dead += int(f.blocks[c.bi].ndead)
		var n int
		entries, n = c.Step(entries, &bound)
		visited += n
	}
	return entries, visited, dead
}

// checkSame asserts that got (an Update chain) answers like want (a
// Build of the same records) and like the brute-force ranking, that
// everything else read off it is what the records say, and that its
// blocks hold the package's invariants.
func checkSame(t *testing.T, h *history, got, want *Flat, queries int) {
	t.Helper()
	current := map[overlay.NodeID]string{}
	for _, r := range h.recs {
		current[r.Node] = fmt.Sprint(r.Avail)
	}
	for q := range queries {
		demand, k := h.demand(), h.rng.Intn(8)
		ge, gv, dead := searchDead(got, demand, k)
		if se, sv := got.Search(nil, demand, k); sv != gv || !slices.Equal(se, ge) {
			t.Fatalf("q %d: Search and a stepped cursor disagree", q)
		}
		we, wv := want.Search(nil, demand, k)
		// The two cut their blocks at different entries, and a scan stops
		// at a hopeless tail only between blocks: the counts may differ by
		// what one block holds, plus, for the chain, one more tail and the
		// dead entries it scans past.
		if gv > wv+blockCap+2*patchCap+dead || wv > gv+blockCap+patchCap {
			t.Fatalf("q %d: Update chain visited %d entries (%d dead in its blocks), Build %d", q, gv, dead, wv)
		}
		for _, g := range resolve(got, ge) {
			if current[g.node] != g.row {
				t.Fatalf("q %d: reported node %d with row %s, its record holds %q", q, g.node, g.row, current[g.node])
			}
		}
		brute := bruteTopK(h.recs, demand, h.cmax, k)
		if ranked := rankReturned(got, ge, demand, h.cmax, k); !slices.Equal(ranked, brute) {
			t.Fatalf("q %d (k=%d): ranked %v, brute force %v", q, k, ranked, brute)
		}
		if ranked := rankReturned(want, we, demand, h.cmax, k); !slices.Equal(ranked, brute) {
			t.Fatalf("q %d (k=%d): Build ranked %v, brute force %v", q, k, ranked, brute)
		}
	}
	checkBlocks(t, got)
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
		if g := recs[i]; g.Node != w.Node || !g.Avail.Equal(w.Avail) || g.Stored != 0 || g.Expires != never {
			t.Fatalf("Records[%d] = %+v, want %+v, never expiring", i, g, w)
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
}

// checkBlocks asserts the package comment's invariants on f's blocks
// and node table: sizes, the dead-plus-tail bound, the first-score
// directory bracketing every score, exact maxima and reach, and — when
// f owns the table, as the newest version of a chain does — a table
// mapping exactly the live entries to their scores.
func checkBlocks(t *testing.T, f *Flat) {
	t.Helper()
	if tab := f.nodes; tab.owner.Load() == f {
		indexed := 0
		for _, s := range tab.score {
			if !math.IsNaN(s) {
				indexed++
			}
		}
		f.each(func(c *cols, i int, _ int32) {
			if s, ok := tab.get(c.nodes[i]); !ok || s != c.score[i] {
				t.Fatalf("node %d scores %v in the blocks, %v in the node table (present: %v)", c.nodes[i], c.score[i], s, ok)
			}
		})
		if indexed != f.Len() {
			t.Fatalf("node table holds %d nodes, the version %d", indexed, f.Len())
		}
	}
	if len(f.first) != len(f.blocks) || len(f.reach) != len(f.blocks)*f.dims {
		t.Fatalf("directory of %d first scores, %d reach values over %d blocks", len(f.first), len(f.reach), len(f.blocks))
	}
	reach := make([]float64, f.dims)
	for i := len(f.blocks) - 1; i >= 0; i-- {
		b := f.blocks[i]
		live, patches := b.live(), int(b.ndead)+len(b.tail.nodes)
		if int(b.ntail) != len(b.tail.nodes) {
			t.Fatalf("block %d: ntail %d, tail of %d", i, b.ntail, len(b.tail.nodes))
		}
		if len(b.nodes) == 0 || len(b.nodes) > blockCap || live == 0 || (live < minFill && i+1 < len(f.blocks)) {
			t.Fatalf("block %d of %d: prefix of %d, %d live entries", i, len(f.blocks), len(b.nodes), live)
		}
		if patches > patchCap {
			t.Fatalf("block %d: %d dead plus %d tail entries, over %d", i, b.ndead, len(b.tail.nodes), patchCap)
		}
		dead := 0
		for _, w := range b.dead {
			dead += bits.OnesCount64(w)
		}
		if dead != int(b.ndead) {
			t.Fatalf("block %d: %d dead bits, ndead %d", i, dead, b.ndead)
		}
		scores := slices.Clone(b.score)
		if len(b.tail.nodes) > 0 {
			if !sort.SliceIsSorted(b.tail.nodes, func(x, y int) bool { return b.tail.key(x).cmp(b.tail.key(y)) < 0 }) {
				t.Fatalf("block %d: tail out of order", i)
			}
			if i > 0 && b.tail.key(0).cmp(b.key(0)) < 0 {
				t.Fatalf("block %d: tail entry %v below the prefix's first key %v", i, b.tail.key(0), b.key(0))
			}
			scores = append(scores, b.tail.score...)
		}
		for _, s := range scores {
			if s < f.first[i] || i+1 < len(f.blocks) && s > f.first[i+1] {
				t.Fatalf("block %d: score %v outside [first %v, next first]", i, s, f.first[i])
			}
		}
		want := f.liveMax(b)
		if !slices.Equal(b.max, want) {
			t.Fatalf("block %d: max %v, its live entries reach %v", i, b.max, want)
		}
		for d := range reach {
			if reach[d] = want[d]; i+1 < len(f.blocks) {
				reach[d] = max(want[d], f.reach[(i+1)*f.dims+d])
			}
		}
		if !slices.Equal(f.reach[i*f.dims:(i+1)*f.dims], reach) {
			t.Fatalf("block %d: reach %v, want %v", i, f.reach[i*f.dims:(i+1)*f.dims], reach)
		}
	}
}

// TestUpdateMatchesBuild is the copy-on-write property test: over
// seeded random histories whose populations grow through block splits,
// shrink through merges down to nothing and come back, with score
// ties, the index an Update chain arrives at must
// answer every Search like a Build from scratch of the same records —
// the same ranked answer, visited counts within a block plus the dead
// entries scanned of each other — and both like the brute-force top-k.
// Long one-node chains walk every block through many patches and both
// rewrite triggers.
func TestUpdateMatchesBuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h := &history{rng: rand.New(rand.NewSource(seed)), cmax: vector.Of(8, 8, 5)}
		f := Build(nil, h.cmax)
		patched, rewritten := 0, 0
		step := func(b int, grow float64) {
			t.Helper()
			add, dirty := h.batch(b, grow)
			f = f.Update(add, dirty)
			p, r := f.Churn()
			patched, rewritten = patched+p, rewritten+r
			checkSame(t, h, f, Build(h.recs, h.cmax), 6)
		}
		// empty -> 1 -> empty, one node at a time.
		step(1, 1)
		for len(h.recs) > 0 {
			step(1, 0)
		}
		if f.Len() != 0 || len(f.blocks) != 0 {
			t.Fatalf("seed %d: emptied index holds %d records in %d blocks", seed, f.Len(), len(f.blocks))
		}
		sizes := []int{1, 7, 64}
		for len(h.recs) < 5*blockCap { // grow across several splits
			step(sizes[h.rng.Intn(3)], 0.7)
		}
		for range 20 {
			step(len(h.recs)/2, 0.33) // half the population dirty
		}
		// One-node chains: re-advertisements, joins and leaves in balance,
		// then leaning to leaves (blocks falling under minFill) and to
		// joins (tails filling past patchCap, blocks splitting).
		patched, rewritten = 0, 0
		for _, grow := range []float64{0.33, 0.1, 0.6} {
			for range 15 * len(f.blocks) {
				step(1, grow)
			}
		}
		if blocks := len(f.blocks); patched < 10*blocks || rewritten == 0 {
			t.Fatalf("seed %d: one-node chains patched %d and rewrote %d blocks over %d blocks", seed, patched, rewritten, blocks)
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
	h := &history{rng: rand.New(rand.NewSource(11)), cmax: vector.Of(8, 8, 5)}
	add, dirty := h.batch(3*blockCap, 1)
	old := Build(nil, h.cmax).Update(add, dirty)
	oldRecs := slices.Clone(h.recs)

	type answer struct {
		demand  vector.Vec
		k       int
		hits    []hit
		visited int
	}
	var before []answer
	for range 50 {
		a := answer{demand: h.demand(), k: h.rng.Intn(8)}
		e, v := old.Search(nil, a.demand, a.k)
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
		e, v := old.Search(nil, a.demand, a.k)
		if v != a.visited || !slices.Equal(resolve(old, e), a.hits) {
			t.Fatalf("query %d on the old version changed after 100 later updates", i)
		}
	}

	// Two different batches off the same old version.
	for fork := range 2 {
		fh := &history{rng: rand.New(rand.NewSource(int64(20 + fork))), cmax: h.cmax,
			recs: slices.Clone(oldRecs), next: h.next + 1000}
		add, dirty := fh.batch(40, 0.4)
		checkSame(t, fh, old.Update(add, dirty), Build(fh.recs, fh.cmax), 20)
	}
	oh := &history{rng: h.rng, cmax: h.cmax, recs: oldRecs}
	checkSame(t, oh, old, Build(oldRecs, h.cmax), 20)

	// Two one-node joins off one patched version, both entering the
	// tail of the same block: each fork copies that tail, so neither sees
	// the other's entry and the version they share answers as before.
	ph := &history{rng: rand.New(rand.NewSource(30)), cmax: h.cmax, recs: slices.Clone(oldRecs)}
	avail := oldRecs[len(oldRecs)/2].Avail
	patched := old.Update(ph.join(1<<20, avail))
	if p, r := patched.Churn(); p != 1 || r != 0 {
		t.Fatalf("a one-node join patched %d blocks and rewrote %d; want one patch", p, r)
	}
	at := patched.route(key{patched.inv.Score(avail), 1 << 20})
	if len(patched.blocks[at].tail.nodes) == 0 {
		t.Fatalf("the joined entry is not in block %d's tail", at)
	}
	shared := resolve(patched, entriesOf(patched.Search(nil, avail, 0)))
	for fork, id := range []overlay.NodeID{1<<20 + 1, 1<<20 + 2} {
		fh := &history{rng: rand.New(rand.NewSource(int64(40 + fork))), cmax: h.cmax, recs: slices.Clone(ph.recs)}
		f := patched.Update(fh.join(id, avail))
		if got, was := f.blocks[at].tail.nodes, patched.blocks[at].tail.nodes; &got[0] == &was[0] || len(got) != len(was)+1 {
			t.Fatalf("fork %d: block %d's tail was not copied with the entry added", fork, at)
		}
		checkSame(t, fh, f, Build(fh.recs, fh.cmax), 20)
		for _, other := range []overlay.NodeID{1<<20 + 1, 1<<20 + 2} {
			_, seen := slices.BinarySearch(f.Nodes(nil), other)
			if seen != (other == id) {
				t.Fatalf("fork %d joined %d; node %d visible: %v", fork, id, other, seen)
			}
		}
	}
	if again := resolve(patched, entriesOf(patched.Search(nil, avail, 0))); !slices.Equal(again, shared) {
		t.Fatal("the patched version two forks derived from answers differently after them")
	}
	checkSame(t, ph, patched, Build(ph.recs, h.cmax), 20)
}

// join adds a record for id with avail and returns Update's arguments.
func (h *history) join(id overlay.NodeID, avail vector.Vec) ([]proto.Record, map[overlay.NodeID]bool) {
	r := proto.Record{Node: id, Avail: avail.Clone(), Expires: never}
	i, _ := h.find(id)
	h.recs = slices.Insert(h.recs, i, r)
	return []proto.Record{r}, map[overlay.NodeID]bool{id: true}
}

// entriesOf drops Search's visited count.
func entriesOf(entries []int32, _ int) []int32 { return entries }

// An update fuzz input spells a history on the search case's byte
// grid: byte 0 the number of dimensions (1-4), byte 1 k (0-11), one
// byte per dimension of cmax and one of a demand, byte p, then 4p
// records of dims bytes each (the availability) for nodes 0, 2, 4, …. Every later byte starts a step:
//
//	opcode%8 in 0-3  node byte, record  re-advertise the node at node%len
//	opcode%8 in 4-5  record             join a fresh (odd) node id
//	opcode%8 == 6    node byte          leave the node at node%len
//	opcode%8 == 7    count byte         1+count%16 of the above, one Update
//
// A step short of bytes ends the history; at most fuzzSteps are taken.
const fuzzSteps = 64

type updateCase struct {
	data []byte
	cmax vector.Vec
	recs []proto.Record // ascending by node
	next overlay.NodeID
}

func (u *updateCase) take(n int) ([]byte, bool) {
	if len(u.data) < n {
		return nil, false
	}
	b := u.data[:n]
	u.data = u.data[n:]
	return b, true
}

// record reads a record for id: an availability byte per dimension.
func (u *updateCase) record(id overlay.NodeID) (proto.Record, bool) {
	b, ok := u.take(u.cmax.Dim())
	if !ok {
		return proto.Record{}, false
	}
	r := proto.Record{Node: id, Avail: vector.New(u.cmax.Dim()), Expires: never}
	for d := range r.Avail {
		r.Avail[d] = fuzzValue(u.cmax[d], b[d])
	}
	return r, true
}

// op reads one single-node step into dirty, reporting the record it
// wrote, if any.
func (u *updateCase) op(dirty map[overlay.NodeID]bool) (written *proto.Record, ok bool) {
	code, ok := u.take(1)
	if !ok {
		return nil, false
	}
	switch kind := code[0] % 8; {
	case kind < 4 || kind == 6:
		b, ok := u.take(1)
		if !ok {
			return nil, false
		}
		if len(u.recs) == 0 {
			return nil, true
		}
		i := int(b[0]) % len(u.recs)
		id := u.recs[i].Node
		if kind == 6 {
			u.recs, dirty[id] = slices.Delete(u.recs, i, i+1), false
			return nil, true
		}
		if u.recs[i], ok = u.record(id); !ok {
			return nil, false
		}
		dirty[id] = true
		return &u.recs[i], true
	case kind < 6:
		r, ok := u.record(u.next)
		if !ok {
			return nil, false
		}
		i, _ := slices.BinarySearchFunc(u.recs, r.Node, func(r proto.Record, id overlay.NodeID) int { return cmp.Compare(r.Node, id) })
		u.recs, dirty[r.Node] = slices.Insert(u.recs, i, r), true
		u.next += 2
		return &u.recs[i], true
	}
	return nil, false // a batch inside a batch ends the history
}

// FuzzUpdateMatchesLinear holds an Update chain to the brute-force
// ranking and to a Build of the same records after every step of
// whatever history the bytes spell: one-node re-advertisements, joins
// and leaves, each its own Update, and now and then a batch. Each step
// is derived a second time from its parent, a fork, which must answer
// and read off like the chain's version. The seed
// corpus drives blocks through both rewrite triggers — tails filling
// past patchCap, a block drained under minFill — and an index emptied
// and refilled.
func FuzzUpdateMatchesLinear(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	header := func(p int) []byte {
		out := []byte{2, 3, 8, 8, 5, 40, 64, 30, byte(p)}
		for i := range 4 * p { // scores rising with the node id: blocks are id ranges
			v := byte(i * 128 / (4 * p))
			out = append(out, v, byte(rng.Intn(129)), v)
		}
		return out
	}
	randomRecord := func() []byte {
		return []byte{byte(rng.Intn(140)), byte(rng.Intn(140)), byte(rng.Intn(140))}
	}
	single := func() []byte {
		switch code := byte(rng.Intn(7)); {
		case code < 4:
			return append([]byte{code, byte(rng.Intn(256))}, randomRecord()...)
		case code < 6:
			return append([]byte{code}, randomRecord()...)
		default:
			return []byte{code, byte(rng.Intn(256))}
		}
	}
	mixed := header(40)
	for range fuzzSteps {
		if rng.Intn(8) == 0 {
			mixed = append(mixed, 7, 5)
			for range 6 {
				mixed = append(mixed, single()...)
			}
			continue
		}
		mixed = append(mixed, single()...)
	}
	f.Add(mixed)
	fill := header(40) // joins into one block: its tail past patchCap, then splits
	for range fuzzSteps {
		fill = append(fill, 4, 64, 20, 64)
	}
	f.Add(fill)
	drain := header(40) // the lowest block loses its entries, one leave at a time
	for range fuzzSteps {
		drain = append(drain, 6, 0)
	}
	f.Add(drain)
	refill := header(0) // empty, one node, empty, then a batch
	refill = append(refill, 5, 10, 10, 10, 6, 0, 6, 0, 7, 15)
	for range 16 {
		refill = append(refill, 4)
		refill = append(refill, randomRecord()...)
	}
	f.Add(refill)

	f.Fuzz(func(t *testing.T, data []byte) {
		updateMatchesLinear(t, data)
		if useAVX2 { // and on the generic loop, which this machine otherwise never runs
			useGeneric(t)
			updateMatchesLinear(t, data)
		}
	})
}

// updateMatchesLinear replays the history data spells, checking every
// step (see FuzzUpdateMatchesLinear).
func updateMatchesLinear(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	dims, k := 1+int(data[0])%4, int(data[1])%12
	u := &updateCase{data: data[2:], cmax: vector.New(dims), next: 1}
	head, ok := u.take(2*dims + 1)
	if !ok {
		return
	}
	demand := vector.New(dims)
	for d := range dims {
		u.cmax[d] = float64(head[d] % 33)
		demand[d] = fuzzValue(u.cmax[d], head[dims+d])
	}
	for i := range 4 * int(head[2*dims]) {
		r, ok := u.record(overlay.NodeID(2 * i))
		if !ok {
			break
		}
		u.recs = append(u.recs, r)
	}
	flat := Build(u.recs, u.cmax)
	for range fuzzSteps {
		dirty := map[overlay.NodeID]bool{}
		demands := []vector.Vec{demand}
		if len(u.data) > 0 && u.data[0]%8 == 7 {
			count, ok := u.take(2)
			if !ok {
				return
			}
			for range 1 + int(count[1])%16 {
				r, ok := u.op(dirty)
				if !ok {
					return
				}
				if r != nil {
					demands = append(demands, r.Avail)
				}
			}
		} else if r, ok := u.op(dirty); !ok {
			return
		} else if r != nil {
			demands = append(demands, r.Avail)
		}
		var add []proto.Record
		for _, r := range u.recs {
			if dirty[r.Node] {
				add = append(add, r)
			}
		}
		prev := flat
		flat = flat.Update(add, dirty)
		checkUpdateCase(t, u, flat, demands, k)
		// prev no longer owns the node table: deriving the step from it
		// again forks, through a table rebuilt from prev's blocks.
		fork := prev.Update(add, dirty)
		for _, demand := range demands {
			got, _ := fork.Search(nil, demand, k)
			want, _ := flat.Search(nil, demand, k)
			if !slices.Equal(resolve(fork, got), resolve(flat, want)) {
				t.Fatalf("demand %v k %d: the fork answers %v, the chain %v", demand, k, resolve(fork, got), resolve(flat, want))
			}
		}
		if !slices.EqualFunc(fork.Records(), flat.Records(), func(a, b proto.Record) bool {
			return a.Node == b.Node && a.Avail.Equal(b.Avail) && a.Expires == b.Expires
		}) {
			t.Fatal("the fork's Records differ from the chain's")
		}
		checkBlocks(t, fork)
	}
}

// checkUpdateCase asserts that flat answers every demand like the
// brute-force ranking over u's records, reads off what a Build of them
// would, and holds the block invariants.
func checkUpdateCase(t *testing.T, u *updateCase, flat *Flat, demands []vector.Vec, k int) {
	t.Helper()
	for _, demand := range demands {
		got, _ := flat.Search(nil, demand, k)
		want := bruteTopK(u.recs, demand, u.cmax, k)
		if ranked := rankReturned(flat, got, demand, u.cmax, k); !slices.Equal(ranked, want) {
			t.Fatalf("cmax %v demand %v k %d: ranked %v, brute force %v", u.cmax, demand, k, ranked, want)
		}
	}
	built := Build(u.recs, u.cmax)
	if flat.Len() != built.Len() || !slices.Equal(flat.Nodes(nil), built.Nodes(nil)) {
		t.Fatalf("Len %d, Nodes %v; a Build holds %d, %v", flat.Len(), flat.Nodes(nil), built.Len(), built.Nodes(nil))
	}
	got, want := vector.New(u.cmax.Dim()), vector.New(u.cmax.Dim())
	flat.RaiseMax(got)
	built.RaiseMax(want)
	if !got.Equal(want) {
		t.Fatalf("RaiseMax %v, a Build's %v", got, want)
	}
	if !slices.EqualFunc(flat.Records(), built.Records(), func(a, b proto.Record) bool {
		return a.Node == b.Node && a.Avail.Equal(b.Avail) && a.Expires == b.Expires
	}) {
		t.Fatalf("Records differ from a Build's")
	}
	checkBlocks(t, flat)
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
// twice the bytes (the pointer arrays and the directories are the part
// that grows) — and stays within the patch path's budget: a patched
// header, dead bitmap and tail per touched block, the block pointer
// array, and a share of the rewrites; in bytes and in allocations.
// Measured: 2 285 B in 8.02 allocations at 2 500 records, 2 614 B in
// 7.02 at 25 000.
func TestUpdateAllocationIsNotPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bytesCap, allocsCap = 2688, 9
	perUpdate := func(n int) (bytes, allocs float64) {
		_, update := updater(n, 1)
		for range 200 { // past the splits of the freshly built, full blocks
			update()
		}
		bytes, allocs = memtest.PerCall(1, 200, update)
		// Less the one availability the updater clones per call.
		return bytes - float64(8*benchCMax.Dim()), allocs - 1
	}
	small, smallAllocs := perUpdate(2500)
	large, largeAllocs := perUpdate(25000)
	t.Logf("one-node Update allocates %.0f B in %.2f allocations at n=2500, %.0f B in %.2f at n=25000", small, smallAllocs, large, largeAllocs)
	if large > 2*small {
		t.Fatalf("one-node Update allocates %.0f B at n=25000, more than twice the %.0f B at n=2500", large, small)
	}
	if max(small, large) > bytesCap || max(smallAllocs, largeAllocs) > allocsCap {
		t.Fatalf("one-node Update allocates %.0f B in %.2f allocations at n=2500, %.0f B in %.2f at n=25000; caps %d B, %d allocations",
			small, smallAllocs, large, largeAllocs, bytesCap, allocsCap)
	}
}

// TestBuildBytesPerRecord is the memory budget of the index itself: the
// live heap a Build of 25 000 five-dimensional records holds per record
// — the prefix columns (node, score, signature, availability row), the
// block headers, the directories and the node table — measured after
// the input records exist, so they are not counted. Measured: 72.4 B.
func TestBuildBytesPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes what is allocated")
	}
	const n, budget = 25000, 75
	recs := population(rand.New(rand.NewSource(5)), n, benchCMax)
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	f := Build(recs, benchCMax)
	per := float64(live()-before) / n
	runtime.KeepAlive(f)
	runtime.KeepAlive(recs)
	t.Logf("a Build of %d records holds %.1f B per record", n, per)
	if per > budget {
		t.Fatalf("a Build of %d records holds %.1f B per record, budget %d", n, per, budget)
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
		_, v := f.Search(buf[:0], demands[i%len(demands)], 3)
		visited += v
		i++
	}
	b.ReportMetric(float64(visited)/float64(i), "visited/op")
}

// TestUpdatePanicsOnAStaleNodeTable: a leaving key its block does not
// hold — a node table out of step with the blocks — stops Update with a
// message that says so, not an index out of range further on.
func TestUpdatePanicsOnAStaleNodeTable(t *testing.T) {
	recs := population(rand.New(rand.NewSource(3)), 3*blockCap, benchCMax)
	id := recs[blockCap].Node
	other, _ := Build(recs, benchCMax).nodes.get(recs[0].Node)
	for _, stale := range []float64{-1, other} { // a score no entry has; another node's
		f := Build(recs, benchCMax)
		f.nodes.score[id] = stale
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "out of step") {
					t.Fatalf("table score %v: Update of the node panicked with %q", stale, msg)
				}
			}()
			f.Update(nil, map[overlay.NodeID]bool{id: false})
		}()
	}
}
