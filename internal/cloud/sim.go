package cloud

import (
	"fmt"
	"sort"
	"time"

	"pidcan/internal/aggregate"
	"pidcan/internal/churn"
	"pidcan/internal/core"
	"pidcan/internal/gossip"
	"pidcan/internal/khdn"
	"pidcan/internal/metrics"
	"pidcan/internal/overlay"
	"pidcan/internal/proto"
	"pidcan/internal/psm"
	"pidcan/internal/sim"
	"pidcan/internal/simenv"
	"pidcan/internal/task"
	"pidcan/internal/trace"
	"pidcan/internal/vector"
)

// node is one SOC participant: its PSM host plus the task-pipeline
// bookkeeping.
type node struct {
	id   overlay.NodeID
	host *psm.Host

	arrival    sim.Timer
	completion sim.Timer
	// specs holds the task.Spec of every task currently running on
	// this host, for fairness accounting at completion.
	specs map[psm.TaskID]*task.Spec
}

// Simulation is one fully wired SOC run. Build with New, execute
// with Run. A Simulation is single-goroutine; run many Simulations
// in parallel for sweeps (see internal/experiment).
type Simulation struct {
	*simenv.Env // the nodes' liveness, overlay (nil for Newscast), network and clock

	cfg      Config
	rngChurn *sim.RNG
	gen      *task.Generator
	disc     proto.Discovery

	nodes     map[overlay.NodeID]*node
	capSum    vector.Vec
	capCount  int
	churner   *churn.Scheduler
	agg       *aggregate.Estimator // nil unless AggregatedCMax
	tr        *trace.Log
	wallStart time.Time
}

var _ proto.Env = (*Simulation)(nil)

// New builds a simulation from the config.
func New(cfg Config) (*Simulation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dims := 0
	if cfg.usesOverlay() {
		dims = cfg.overlayDims()
	}
	env, err := simenv.New(cfg.Seed, cfg.Nodes, dims, task.CMax(), &cfg.Net)
	if err != nil {
		return nil, err
	}
	s := &Simulation{
		Env:      env,
		cfg:      cfg,
		rngChurn: sim.NewRNG(cfg.Seed, sim.StreamChurn),
		nodes:    make(map[overlay.NodeID]*node),
		capSum:   vector.New(task.Dims),
		tr:       trace.New(cfg.TraceCapacity),
	}
	if s.gen, err = task.NewGenerator(cfg.genConfig(), sim.NewRNG(cfg.Seed, sim.StreamWorkload)); err != nil {
		return nil, err
	}
	for _, id := range s.AliveNodes() {
		s.addNode(id)
	}

	if s.disc, err = s.buildDiscovery(); err != nil {
		return nil, err
	}
	if cfg.AggregatedCMax {
		if p, ok := s.disc.(*core.PIDCAN); ok {
			s.agg, err = aggregate.New(s, func(id overlay.NodeID) vector.Vec {
				if n, ok := s.nodes[id]; ok {
					return n.host.Cap
				}
				return vector.New(task.Dims)
			}, aggregate.Default())
			if err != nil {
				return nil, err
			}
			p.SetCMaxSource(s.agg.Estimate)
		}
	}
	s.churner, err = churn.New(s.Engine(), s.rngChurn, cfg.Churn, cfg.Nodes, s.churnLeave, s.churnJoin)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// buildDiscovery instantiates the configured protocol.
func (s *Simulation) buildDiscovery() (proto.Discovery, error) {
	switch s.cfg.Protocol {
	case HIDCAN, SIDCAN, HIDCANSoS, SIDCANSoS, SIDCANVD:
		cc := s.cfg.Core
		switch s.cfg.Protocol {
		case HIDCAN:
			cc.Mode, cc.SoS, cc.VirtualDim = core.Hopping, false, false
		case SIDCAN:
			cc.Mode, cc.SoS, cc.VirtualDim = core.Spreading, false, false
		case HIDCANSoS:
			cc.Mode, cc.SoS, cc.VirtualDim = core.Hopping, true, false
		case SIDCANSoS:
			cc.Mode, cc.SoS, cc.VirtualDim = core.Spreading, true, false
		case SIDCANVD:
			cc.Mode, cc.SoS, cc.VirtualDim = core.Spreading, false, true
		}
		return core.New(s, cc)
	case Newscast:
		return gossip.New(s, s.cfg.Gossip)
	case KHDNCAN:
		return khdn.New(s, s.cfg.KHDN)
	}
	return nil, fmt.Errorf("cloud: unknown protocol %v", s.cfg.Protocol)
}

// addNode creates the node record with a Table-I capacity.
func (s *Simulation) addNode(id overlay.NodeID) {
	cap := s.gen.Capacity()
	s.capSum.AddInPlace(cap)
	s.capCount++
	n := &node{
		id:    id,
		host:  psm.NewHost(cap, task.WorkDims, psm.DefaultOverhead()),
		specs: make(map[psm.TaskID]*task.Spec),
	}
	s.nodes[id] = n
}

// avgCap returns the running average node capacity — the baseline of
// the fairness efficiency estimate (§IV.A).
func (s *Simulation) avgCap() vector.Vec {
	if s.capCount == 0 {
		return vector.New(task.Dims)
	}
	return s.capSum.Scale(1 / float64(s.capCount))
}

// Availability implements proto.Env: what the node's PSM host has
// free.
func (s *Simulation) Availability(id overlay.NodeID) vector.Vec {
	n, ok := s.nodes[id]
	if !ok {
		return vector.New(task.Dims)
	}
	return n.host.Availability()
}

// --- task pipeline ----------------------------------------------------------

// scheduleArrival arms the node's next Poisson task arrival.
func (s *Simulation) scheduleArrival(n *node) {
	gap := s.gen.Interarrival()
	n.arrival = s.Engine().After(gap, func() {
		if !s.Alive(n.id) {
			return
		}
		s.submit(n)
		s.scheduleArrival(n)
	})
}

// pending tracks one task through discovery and placement retries.
type pending struct {
	spec    *task.Spec
	attempt int
	// sawCandidates records whether any discovery attempt returned
	// qualified records: such a task can end "unplaced" but never
	// "failed" (the paper's F-Ratio counts only tasks that cannot
	// find any qualified nodes).
	sawCandidates bool
}

// submit generates a task at node n and starts discovery.
func (s *Simulation) submit(n *node) {
	spec := s.gen.Next(int(n.id), s.Engine().Now())
	s.Recorder().TaskGenerated()
	s.tr.Record(trace.Event{At: s.Engine().Now(), Kind: trace.TaskSubmitted, Node: n.id, Task: spec.ID})
	s.runQuery(n, &pending{spec: spec})
}

// runQuery launches one discovery attempt for the task.
func (s *Simulation) runQuery(n *node, pt *pending) {
	started := s.Engine().Now()
	s.disc.Query(n.id, pt.spec.Demand, s.cfg.ResultsWanted, func(res proto.QueryResult) {
		s.Recorder().QueryResolved(res.Hops)
		s.Recorder().ObserveQueryDelay(s.Engine().Now() - started)
		s.tr.Record(trace.Event{At: s.Engine().Now(), Kind: trace.QueryResolved, Node: n.id,
			Task: pt.spec.ID, Arg: int64(len(res.Candidates))})
		s.onQueryDone(n, pt, res)
	})
}

// onQueryDone ranks candidates and attempts placement.
func (s *Simulation) onQueryDone(n *node, pt *pending, res proto.QueryResult) {
	if !s.Alive(n.id) {
		s.Recorder().TaskLost()
		return
	}
	cands := s.rankCandidates(pt.spec.Demand, res.Candidates)
	if len(cands) == 0 {
		s.Recorder().EmptyQueries++
		s.retryOrFail(n, pt)
		return
	}
	pt.sawCandidates = true
	s.tryPlace(n, pt, cands)
}

// rankCandidates orders qualified records per the selection policy.
func (s *Simulation) rankCandidates(demand vector.Vec, cands []proto.Record) []proto.Record {
	out := make([]proto.Record, 0, len(cands))
	out = append(out, cands...)
	cmax := task.CMax()
	switch s.cfg.Selection {
	case BestFit:
		sort.SliceStable(out, func(i, j int) bool {
			return out[i].Avail.Surplus(demand, cmax) < out[j].Avail.Surplus(demand, cmax)
		})
	case MaxShare:
		sort.SliceStable(out, func(i, j int) bool {
			return out[i].Avail.Surplus(demand, cmax) > out[j].Avail.Surplus(demand, cmax)
		})
	case FirstFit:
		// Records arrive sorted by node id already.
	}
	return out
}

// tryPlace sends a placement request to the best remaining candidate.
// Rejections (stale records, contention races, churn) fall through to
// the next candidate and finally to a re-query.
func (s *Simulation) tryPlace(n *node, pt *pending, cands []proto.Record) {
	if !s.Alive(n.id) {
		s.Recorder().TaskLost()
		return
	}
	if len(cands) == 0 {
		s.retryOrFail(n, pt)
		return
	}
	target := cands[0]
	rest := cands[1:]
	s.Recorder().PlacementAttempts++
	s.Send(n.id, target.Node, metrics.MsgPlacement, proto.SizePlacement, func() {
		host := s.nodes[target.Node]
		now := s.Engine().Now()
		host.host.Advance(now)
		t := pt.spec.NewPSMTask()
		if host.host.Add(t, now, !s.cfg.ValidatePlacement) {
			host.specs[pt.spec.ID] = pt.spec
			s.tr.Record(trace.Event{At: now, Kind: trace.TaskPlaced, Node: n.id,
				Task: pt.spec.ID, Arg: int64(target.Node)})
			s.refreshCompletion(host)
			return
		}
		// Rejected: Inequality (2) no longer holds at the host — a
		// staleness/admission race with concurrent analogous
		// queries. One reject message travels back.
		s.Recorder().PlacementRejects++
		s.tr.Record(trace.Event{At: now, Kind: trace.PlacementRejected, Node: target.Node, Task: pt.spec.ID})
		s.Send(target.Node, n.id, metrics.MsgPlacement, proto.SizeNotify, func() {
			s.tryPlace(n, pt, rest)
		}, func() {
			s.Recorder().TaskLost() // requester gone
		})
	}, func() {
		// Candidate died before delivery.
		s.tryPlace(n, pt, rest)
	})
}

// retryOrFail re-queries within the retry budget; on exhaustion the
// task counts as failed (never found qualified records — F-Ratio) or
// unplaced (found records but lost every admission race).
func (s *Simulation) retryOrFail(n *node, pt *pending) {
	if !s.Alive(n.id) {
		s.Recorder().TaskLost()
		return
	}
	if pt.attempt < s.cfg.QueryRetries {
		pt.attempt++
		s.runQuery(n, pt)
		return
	}
	if pt.sawCandidates {
		s.Recorder().TaskUnplaced()
		s.tr.Record(trace.Event{At: s.Engine().Now(), Kind: trace.TaskUnplaced, Node: n.id, Task: pt.spec.ID})
	} else {
		s.Recorder().TaskFailed()
		s.tr.Record(trace.Event{At: s.Engine().Now(), Kind: trace.TaskFailed, Node: n.id, Task: pt.spec.ID})
	}
}

// refreshCompletion re-arms the host's earliest-completion timer
// after any membership change.
func (s *Simulation) refreshCompletion(n *node) {
	s.Engine().Stop(n.completion)
	if !s.Alive(n.id) {
		return
	}
	_, at, ok := n.host.NextCompletion()
	if !ok {
		return
	}
	n.completion = s.Engine().At(at, func() { s.onCompletion(n) })
}

// onCompletion advances the host and retires every task whose work
// is drained.
func (s *Simulation) onCompletion(n *node) {
	if !s.Alive(n.id) {
		return
	}
	now := s.Engine().Now()
	n.host.Advance(now)
	avg := s.avgCap()
	for _, id := range n.host.Tasks() {
		if !n.host.Done(id) {
			continue
		}
		n.host.Remove(id, now)
		spec := n.specs[id]
		delete(n.specs, id)
		if spec == nil {
			continue
		}
		real := (now - spec.Submitted).Seconds()
		if real <= 0 {
			real = 1e-6
		}
		s.Recorder().TaskFinished(spec.ExpectedSeconds(avg) / real)
		s.tr.Record(trace.Event{At: now, Kind: trace.TaskFinished, Node: n.id, Task: id})
	}
	s.refreshCompletion(n)
}

// --- churn -------------------------------------------------------------------

// churnLeave disconnects one random alive node (never below 2 nodes).
func (s *Simulation) churnLeave() {
	alive := s.AliveNodes()
	if len(alive) <= 2 {
		return
	}
	s.kill(alive[s.rngChurn.IntN(len(alive))])
}

// kill tears one node down: timers stop, running tasks are lost or
// recovered, then the zone is reassigned and the protocol state dies.
func (s *Simulation) kill(id overlay.NodeID) {
	n, ok := s.nodes[id]
	if !ok || !s.Alive(id) {
		return
	}
	s.Engine().Stop(n.arrival)
	s.Engine().Stop(n.completion)
	now := s.Engine().Now()
	n.host.Advance(now)
	// Deterministic iteration: recovery consumes protocol RNG draws.
	tids := make([]psm.TaskID, 0, len(n.specs))
	for tid := range n.specs {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		spec := n.specs[tid]
		delete(n.specs, tid)
		if s.cfg.CheckpointSec > 0 {
			s.recoverTask(n, spec, now)
		} else {
			s.Recorder().TaskLost()
			s.tr.Record(trace.Event{At: now, Kind: trace.TaskLost, Node: id, Task: tid})
		}
	}
	// The recovery queries above were routed over the overlay the node
	// is still part of; it leaves only now. With churnLeave's floor of
	// three alive nodes the overlay never refuses.
	if err := s.Leave(id); err != nil {
		panic(fmt.Sprintf("cloud: node %d cannot leave: %v", id, err))
	}
	if nw := s.Overlay(); nw != nil {
		// Departure maintenance: neighbor refresh on the affected
		// nodes (§IV.B), roughly 2 messages per dimension plus the
		// takeover handshake.
		s.Recorder().Messages(metrics.MsgMaintenance, int64(2*nw.Dim()+2))
	}
	s.disc.NodeLeft(id)
	if s.agg != nil {
		s.agg.NodeLeft(id)
	}
	s.tr.Record(trace.Event{At: s.Engine().Now(), Kind: trace.NodeLeft, Node: id, Arg: int64(s.Size())})
}

// recoverTask re-queues a task killed by its execution node's
// departure, resuming from its last checkpoint: the residual work is
// the host's current remaining work plus up to one checkpoint
// interval of progress lost since the last checkpoint (at the task's
// expected rates). The origin node must be another node, still
// alive, to own the re-query.
func (s *Simulation) recoverTask(dead *node, spec *task.Spec, now sim.Time) {
	origin, ok := s.nodes[overlay.NodeID(spec.Origin)]
	if !ok || origin == dead || !s.Alive(origin.id) {
		s.Recorder().TaskLost()
		return
	}
	t := dead.host.Task(spec.ID)
	if t == nil {
		s.Recorder().TaskLost()
		return
	}
	elapsed := (now - t.Started).Seconds()
	lost := s.cfg.CheckpointSec
	if elapsed < lost {
		lost = elapsed
	}
	remaining := t.Work.Clone()
	initial := spec.InitialWork()
	for k := range remaining {
		remaining[k] += spec.Demand[k] * lost // roll back the un-checkpointed progress
		if remaining[k] > initial[k] {
			remaining[k] = initial[k]
		}
	}
	rspec := *spec
	rspec.Remaining = remaining
	s.Recorder().TaskRecovered()
	s.tr.Record(trace.Event{At: now, Kind: trace.TaskRecovered, Node: origin.id, Task: spec.ID, Arg: int64(dead.id)})
	s.runQuery(origin, &pending{spec: &rspec})
}

// churnJoin adds one brand-new node.
func (s *Simulation) churnJoin() {
	id, err := s.Join()
	if err != nil {
		return
	}
	if nw := s.Overlay(); nw != nil {
		// Join maintenance: bootstrap routing plus neighbor updates.
		s.Recorder().Messages(metrics.MsgMaintenance, int64(2*nw.Dim()+4))
	}
	s.addNode(id)
	s.disc.NodeJoined(id)
	if s.agg != nil {
		s.agg.NodeJoined(id)
	}
	s.tr.Record(trace.Event{At: s.Engine().Now(), Kind: trace.NodeJoined, Node: id, Arg: int64(s.Size())})
	s.scheduleArrival(s.nodes[id])
}

// --- run ----------------------------------------------------------------------

// Result summarizes one finished run.
type Result struct {
	Protocol string
	Config   Config
	Rec      *metrics.Recorder
	// FinalNodes is the alive population at the end.
	FinalNodes int
	// Events is the number of engine callbacks processed.
	Events uint64
	// Wall is the host wall-clock time the run took.
	Wall time.Duration
	// Trace is the structured event log (enabled via
	// Config.TraceCapacity; disabled logs are inert but non-nil).
	Trace *trace.Log
}

// Run executes the simulation to completion and returns the metrics.
func (s *Simulation) Run() *Result {
	s.wallStart = time.Now()
	s.disc.Start()
	if s.agg != nil {
		s.agg.Start()
	}
	for _, id := range s.AliveNodes() {
		s.scheduleArrival(s.nodes[id])
	}
	s.Engine().Every(s.cfg.SnapshotEvery, s.cfg.SnapshotEvery, func() {
		s.Recorder().Snapshot(s.Engine().Now())
	})
	s.churner.Start()
	s.Engine().Run(s.cfg.Duration)
	s.Recorder().Snapshot(s.Engine().Now())
	return &Result{
		Protocol:   s.disc.Name(),
		Config:     s.cfg,
		Rec:        s.Recorder(),
		FinalNodes: s.Size(),
		Events:     s.Engine().Processed(),
		Wall:       time.Since(s.wallStart),
		Trace:      s.tr,
	}
}

// Trace exposes the structured event log (enabled via
// Config.TraceCapacity).
func (s *Simulation) Trace() *trace.Log { return s.tr }

// CheckInvariants verifies the conservation laws every run must
// satisfy; tests and failure-injection suites call it after Run.
func (s *Simulation) CheckInvariants() error {
	rec := s.Recorder()
	if rec.Accounted() > rec.Generated {
		return fmt.Errorf("cloud: accounted %d > generated %d", rec.Accounted(), rec.Generated)
	}
	running := int64(0)
	for _, id := range s.AliveNodes() {
		running += int64(s.nodes[id].host.Len())
	}
	if rec.Accounted()+running > rec.Generated {
		return fmt.Errorf("cloud: accounted %d + running %d > generated %d",
			rec.Accounted(), running, rec.Generated)
	}
	if nw := s.Overlay(); nw != nil {
		if err := nw.Validate(); err != nil {
			return fmt.Errorf("cloud: overlay invalid after run: %w", err)
		}
		if nw.Size() != s.Size() {
			return fmt.Errorf("cloud: overlay has %d zones, %d alive nodes", nw.Size(), s.Size())
		}
	}
	if t := rec.TRatio(); t < 0 || t > 1 {
		return fmt.Errorf("cloud: T-Ratio %v outside [0,1]", t)
	}
	if f := rec.FRatio(); f < 0 || f > 1 {
		return fmt.Errorf("cloud: F-Ratio %v outside [0,1]", f)
	}
	return nil
}
