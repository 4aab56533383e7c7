// Package aggregate implements the gossip-based aggregation the
// paper leans on for Slack-on-Submission: Formula (3)'s upper bound
// cmax "can be statistically aggregated using cached information
// [23]" (Jelasity, Montresor, Babaoglu — gossip-based aggregation in
// large dynamic networks). Each node maintains a local estimate of
// the system-wide maximum capacity vector by periodically pushing
// its estimate to a random overlay neighbor and merging with the
// componentwise maximum; estimates converge in O(log n) rounds.
//
// Max-aggregation cannot decrease, so departures of rich nodes would
// leave stale maxima forever; following [23] the protocol runs in
// globally synchronized epochs derived from the clock: estimates
// carry their epoch, reset lazily to the node's own capacity at each
// epoch boundary, and cross-epoch gossip is discarded. Staleness
// after churn is therefore bounded by one epoch plus the O(log n)
// re-convergence time.
package aggregate

import (
	"fmt"

	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/sim"
	"pidcan/internal/vector"
)

// Config parameterizes the aggregation protocol.
type Config struct {
	// Cycle is the push period per node.
	Cycle sim.Time
	// RestartEvery is the epoch length bounding estimate staleness
	// under churn.
	RestartEvery sim.Time
}

// Default returns a setting matched to the paper's 400 s state
// cycle: one push per cycle, epochs of 2 hours.
func Default() Config {
	return Config{Cycle: 400 * sim.Second, RestartEvery: 2 * sim.Hour}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Cycle <= 0 {
		return fmt.Errorf("aggregate: non-positive cycle")
	}
	if c.RestartEvery <= 0 {
		return fmt.Errorf("aggregate: non-positive restart period")
	}
	if c.RestartEvery < c.Cycle {
		return fmt.Errorf("aggregate: restart period shorter than cycle")
	}
	return nil
}

// state is one node's epoch-tagged estimate.
type state struct {
	vec   vector.Vec
	epoch int64
}

// Estimator runs max-vector aggregation over the overlay. OwnCap
// supplies each node's constant capacity vector.
type Estimator struct {
	env    proto.Env
	cfg    Config
	ownCap func(overlay.NodeID) vector.Vec

	est    map[overlay.NodeID]*state
	timers map[overlay.NodeID]sim.Timer
}

// New builds an estimator; ownCap must return the capacity vector of
// an alive node.
func New(env proto.Env, ownCap func(overlay.NodeID) vector.Vec, cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{
		env:    env,
		cfg:    cfg,
		ownCap: ownCap,
		est:    make(map[overlay.NodeID]*state),
		timers: make(map[overlay.NodeID]sim.Timer),
	}, nil
}

// Start installs the gossip cycle on every alive node.
func (e *Estimator) Start() {
	for _, id := range e.env.AliveNodes() {
		e.NodeJoined(id)
	}
}

// NodeJoined installs per-node state.
func (e *Estimator) NodeJoined(id overlay.NodeID) {
	if _, ok := e.est[id]; ok {
		return
	}
	e.est[id] = &state{vec: e.ownCap(id).Clone(), epoch: e.epochNow()}
	eng := e.env.Engine()
	rng := e.env.ProtoRNG()
	start := eng.Now() + sim.Time(rng.Uniform(0, float64(e.cfg.Cycle)))
	e.timers[id] = eng.Every(start, e.cfg.Cycle, func() { e.push(id) })
}

// NodeLeft tears per-node state down.
func (e *Estimator) NodeLeft(id overlay.NodeID) {
	e.env.Engine().Stop(e.timers[id])
	delete(e.timers, id)
	delete(e.est, id)
}

// epochNow derives the globally synchronized epoch from the clock.
func (e *Estimator) epochNow() int64 {
	return int64(e.env.Engine().Now() / e.cfg.RestartEvery)
}

// refresh resets a stale-epoch estimate to the node's own capacity.
func (e *Estimator) refresh(id overlay.NodeID) *state {
	st, ok := e.est[id]
	if !ok {
		return nil
	}
	if cur := e.epochNow(); st.epoch != cur {
		st.vec = e.ownCap(id).Clone()
		st.epoch = cur
	}
	return st
}

// Estimate returns the node's current cmax estimate (its own
// capacity right after an epoch boundary). The result must not be
// mutated. Nil for unknown nodes.
func (e *Estimator) Estimate(id overlay.NodeID) vector.Vec {
	if st := e.refresh(id); st != nil {
		return st.vec
	}
	if e.env.Alive(id) {
		return e.ownCap(id)
	}
	return nil
}

// push sends the node's estimate to a random overlay neighbor, which
// merges componentwise maxima and replies with its own estimate
// (push-pull). Cross-epoch payloads are discarded.
func (e *Estimator) push(id overlay.NodeID) {
	if !e.env.Alive(id) {
		return
	}
	nw := e.env.Overlay()
	if nw == nil {
		return
	}
	nbs := nw.Neighbors(id)
	if len(nbs) == 0 {
		return
	}
	peer := nbs[e.env.ProtoRNG().IntN(len(nbs))].Owner
	st := e.refresh(id)
	if st == nil {
		return
	}
	sent := st.vec.Clone()
	sentEpoch := st.epoch
	e.env.Send(id, peer, metrics.MsgAggregate, proto.SizeStateUpdate, func() {
		pst := e.refresh(peer)
		if pst == nil || pst.epoch != sentEpoch {
			return // stale epoch: discard
		}
		pst.vec = pst.vec.Max(sent)
		reply := pst.vec.Clone()
		replyEpoch := pst.epoch
		e.env.Send(peer, id, metrics.MsgAggregate, proto.SizeStateUpdate, func() {
			ist := e.refresh(id)
			if ist == nil || ist.epoch != replyEpoch {
				return
			}
			ist.vec = ist.vec.Max(reply)
		}, nil)
	}, nil)
}
