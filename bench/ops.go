package bench

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
)

type opKind uint8

const (
	opQuery opKind = iota
	opUpdate
	opJoin
	opLeave
)

// op is one generated driver operation. Slot indexes the caller's
// own initial nodes (update) or the nodes it has joined and not yet
// left (leave); Vec is the demand (query) or availability (update,
// join).
type op struct {
	Kind opKind
	Slot int
	Vec  []float64
}

// mix is the write share of a workload; the rest are queries.
type mix struct{ update, join, leave float64 }

// opStream generates one caller's operations. The stream is a pure
// function of (seed, caller): it never looks at a response, so the
// same seed replays the same inputs whatever the system answers.
type opStream struct {
	rng      *rand.Rand
	mix      mix
	cmax     []float64
	slots    int         // initial nodes this caller may update
	joined   int         // nodes joined and not yet left
	profiles [][]float64 // popular demand profiles (nil: fresh random demands)
	zipf     *rand.Zipf
}

// zipfS is the popularity skew of the demand profiles: a few hot
// profiles take most lookups while the tail still cycles through the
// cache's capacity.
const zipfS = 1.1

func newOpStream(seed uint64, caller int, m mix, cmax []float64, slots int, profiles [][]float64) *opStream {
	s := &opStream{
		rng:      rand.New(rand.NewPCG(seed, 0x0b5+uint64(caller))),
		mix:      m,
		cmax:     cmax,
		slots:    slots,
		profiles: profiles,
	}
	if len(profiles) > 1 {
		s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(profiles)-1))
	}
	return s
}

// randVec draws a vector uniformly in [lo, hi]·cmax per dimension.
func randVec(rng *rand.Rand, cmax []float64, lo, hi float64) []float64 {
	v := make([]float64, len(cmax))
	for k := range v {
		v[k] = cmax[k] * (lo + (hi-lo)*rng.Float64())
	}
	return v
}

// demandProfiles draws n demand vectors in [0, 0.6]·cmax.
func demandProfiles(seed uint64, n int, cmax []float64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0xd311a))
	out := make([][]float64, n)
	for i := range out {
		out[i] = randVec(rng, cmax, 0, 0.6)
	}
	return out
}

func (s *opStream) next() op {
	r := s.rng.Float64()
	switch m := s.mix; {
	case r < m.update && s.slots > 0:
		return op{Kind: opUpdate, Slot: s.rng.IntN(s.slots), Vec: randVec(s.rng, s.cmax, 0.2, 1)}
	case r < m.update+m.join+m.leave && r >= m.update:
		// A leave with nothing of this caller's left to remove becomes
		// a join, so no generated operation can fail.
		if r >= m.update+m.join && s.joined > 0 {
			s.joined--
			return op{Kind: opLeave, Slot: s.rng.IntN(s.joined + 1)}
		}
		s.joined++
		return op{Kind: opJoin, Vec: randVec(s.rng, s.cmax, 0.2, 1)}
	}
	return op{Kind: opQuery, Vec: s.demand()}
}

// demand is a popular profile when the workload has them, else a
// fresh vector in [0, 0.6]·cmax (shared profiles are never written).
func (s *opStream) demand() []float64 {
	if s.zipf != nil {
		return s.profiles[s.zipf.Uint64()]
	}
	return randVec(s.rng, s.cmax, 0, 0.6)
}

// appendOp encodes o; two streams are equal iff their encodings are.
func appendOp(dst []byte, o op) []byte {
	dst = append(dst, byte(o.Kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(o.Slot))
	for _, v := range o.Vec {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}
