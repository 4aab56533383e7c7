// Package prototest provides the proto.Env protocol unit tests run
// on: the simulated world of internal/simenv with a fixed
// one-millisecond hop, every node's availability set directly by the
// test, and Kill.
package prototest

import (
	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/simenv"
	"pidcan/internal/vector"
)

// Env is a test double for proto.Env. Eng, Net, Rec and Cmax are the
// embedded world's engine, overlay, recorder and cmax.
type Env struct {
	*simenv.Env
	Eng   *sim.Engine
	Net   *overlay.Network
	Rec   *metrics.Recorder
	Cmax  vector.Vec
	Avail map[overlay.NodeID]vector.Vec
}

var _ proto.Env = (*Env)(nil)

// New builds a fake environment with n nodes on a dim-dimensional
// overlay, every node alive with availability = cmax/2.
func New(dim, n int, cmax vector.Vec, seed uint64) *Env {
	w, err := simenv.New(seed, n, dim, cmax, nil)
	if err != nil {
		panic(err)
	}
	e := &Env{Env: w, Eng: w.Engine(), Net: w.Overlay(), Rec: w.Recorder(), Cmax: cmax,
		Avail: make(map[overlay.NodeID]vector.Vec)}
	for _, id := range w.AliveNodes() {
		e.Avail[id] = cmax.Scale(0.5)
	}
	return e
}

// Availability implements proto.Env: what the test set, else zero.
func (e *Env) Availability(id overlay.NodeID) vector.Vec {
	if a, ok := e.Avail[id]; ok {
		return a.Clone()
	}
	return vector.New(e.Cmax.Dim())
}

// Kill takes a node down (protocol NodeLeft must be invoked by the
// test separately, mirroring the cloud layer's ordering).
func (e *Env) Kill(id overlay.NodeID) {
	if err := e.Leave(id); err != nil {
		panic(err)
	}
}
