// Package replay drives a fresh serving engine (or any
// serve.Service, including a federation router) deterministically
// through a captured trace: every event is applied sequentially in
// trace order, at recorded pacing or as fast as the target allows,
// with scripted faults injected at their recorded positions and a
// set of invariants asserted at the end — zero acked-write loss,
// response-digest equivalence against a reference engine, bounded
// shard imbalance, bounded p99.
//
// Determinism contract. A trace replays bit-deterministically when
// (a) the target engine is built from the trace header's shape (same
// shards, nodes per shard, seed, CMax — equal configs rebuild
// identical backends, the same property recovery relies on), (b)
// queries in the trace avoid the consistent path (a shard's overlay
// clock follows wall time, see serve's clock contract, so the
// protocol's hop state depends on when the idle ticks fell) — cached
// or not, a snapshot-path answer is the paper's answer over the
// records, which carry no clock, so snapshot results depend only on
// the record set. Scenario-generated traces satisfy both by
// construction; live-captured traces of
// concurrent traffic keep per-shard write order exact (mutations are
// captured under the shards' combiner locks in application order) but may
// interleave query digests non-strictly — replay against a reference
// engine stays exact, comparison against live-recorded digests is
// opt-in via Options.Strict.
package replay

import (
	"fmt"
	"sort"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/serve"
	"pidcan/internal/serve/capture"
	"pidcan/internal/serve/wal"
	"pidcan/internal/vector"
)

// Pace selects replay pacing.
type Pace int

const (
	// PaceMax replays back-to-back, as fast as the target applies.
	PaceMax Pace = iota
	// PaceRecorded reproduces the captured arrival deltas.
	PaceRecorded
)

// Options parameterizes a replay run.
type Options struct {
	Pace Pace
	// Strict compares every replayed query digest against the digest
	// captured live. Sound for sequentially captured traces
	// (scenarios, the property tests); concurrently captured digests
	// may legitimately differ (see the package comment).
	Strict bool
	// Reference, when non-nil, is a second engine driven through the
	// identical event sequence (including faults); every query's
	// digest is compared between target and reference. Build it from
	// the same header shape; Run asks it every query with NoCache, so
	// its answers come from an index search, never from its cache. It
	// reads through the index like the target: what checks the read
	// path is the referee, which replay runs on every snapshot-path
	// query of a target that has one (serve.Engine.Referee) — on the
	// target's own records.
	Reference *serve.Engine
	// OnQuery, when set, observes every replayed query.
	OnQuery func(ev *capture.Event, resp serve.QueryResponse, err error)
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Invariants is the assertion set checked against a Result.
type Invariants struct {
	// ZeroAckedWriteLoss asserts every write acked during replay is
	// reflected in the target's final node set, nothing lost, nothing
	// resurrected, and no write failed unexpectedly.
	ZeroAckedWriteLoss bool
	// DigestEquivalence asserts zero digest mismatches — against the
	// reference engine when one is attached, and against recorded
	// digests when Strict.
	DigestEquivalence bool
	// MaxImbalance, when > 0, bounds the final max/min shard
	// population ratio (halted shards excluded; engine targets only).
	MaxImbalance float64
	// MaxP99, when > 0, bounds the replayed query p99 latency.
	MaxP99 time.Duration
}

// Result is what a replay run measured.
type Result struct {
	Events    int `json:"events"`
	Queries   int `json:"queries"`
	Mutations int `json:"mutations"`
	Faults    int `json:"faults"`

	// AckedWrites counts mutations the target acknowledged;
	// RejectedOnHalted counts writes that failed because their shard
	// was halted by an earlier fault (expected, not loss);
	// WriteErrors counts unexpected write failures.
	AckedWrites      int `json:"acked_writes"`
	RejectedOnHalted int `json:"rejected_on_halted"`
	WriteErrors      int `json:"write_errors"`
	QueryErrors      int `json:"query_errors"`

	// JoinDivergence counts joins whose assigned id differed from the
	// recorded one — the replay-is-off-the-rails signal (all
	// subsequent ids would misroute).
	JoinDivergence int `json:"join_divergence"`
	// DigestMismatches counts replayed digests differing from the
	// recorded ones (Strict only); RefMismatches counts the answers
	// differing from the reference engine's or from the referee's.
	DigestMismatches int `json:"digest_mismatches"`
	RefMismatches    int `json:"ref_mismatches"`
	// FaultsSkipped counts fault events the target cannot express
	// (e.g. a promote on a primary).
	FaultsSkipped int `json:"faults_skipped"`

	// LostWrites is how many acked-alive nodes are missing from the
	// final node set; ExtraNodes how many final nodes were never
	// acked alive.
	LostWrites int `json:"lost_writes"`
	ExtraNodes int `json:"extra_nodes"`

	// Imbalance is the final max/min shard population ratio over
	// non-halted shards (0 when the target is not an engine).
	Imbalance float64 `json:"imbalance"`

	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	Wall time.Duration `json:"wall_ns"`
}

// Check returns the invariant violations, empty when all hold.
func (r *Result) Check(inv Invariants) []string {
	var v []string
	if r.JoinDivergence > 0 {
		v = append(v, fmt.Sprintf("replay diverged: %d joins assigned ids differing from the trace", r.JoinDivergence))
	}
	if inv.ZeroAckedWriteLoss {
		if r.LostWrites > 0 {
			v = append(v, fmt.Sprintf("acked-write loss: %d acked-alive nodes missing from the final node set", r.LostWrites))
		}
		if r.ExtraNodes > 0 {
			v = append(v, fmt.Sprintf("acked-write loss: %d final nodes never acked alive", r.ExtraNodes))
		}
		if r.WriteErrors > 0 {
			v = append(v, fmt.Sprintf("acked-write loss: %d unexpected write failures", r.WriteErrors))
		}
	}
	if inv.DigestEquivalence {
		if r.RefMismatches > 0 {
			v = append(v, fmt.Sprintf("digest equivalence: %d responses differ from the reference engine", r.RefMismatches))
		}
		if r.DigestMismatches > 0 {
			v = append(v, fmt.Sprintf("digest equivalence: %d responses differ from the recorded digests", r.DigestMismatches))
		}
	}
	if inv.MaxImbalance > 0 && r.Imbalance > inv.MaxImbalance {
		v = append(v, fmt.Sprintf("imbalance %.2f exceeds bound %.2f", r.Imbalance, inv.MaxImbalance))
	}
	if inv.MaxP99 > 0 && r.P99 > inv.MaxP99 {
		v = append(v, fmt.Sprintf("p99 %s exceeds bound %s", r.P99, inv.MaxP99))
	}
	return v
}

// Optional target capabilities: faults and migrations need more than
// the Service surface. A target lacking one has the event counted as
// skipped (faults) or errored (migrations).
type shardHalter interface{ HaltShard(int) error }
type migrator interface {
	Migrate(serve.GlobalID, int) error
}
type promoter interface{ Promote() (uint64, error) }
type rebalancer interface {
	Rebalance() (serve.RebalanceResult, error)
}
type statser interface{ Stats() serve.Stats }
type refereed interface {
	Referee(vector.Vec, int) []serve.Candidate
}

// Run replays events (from a trace with header hdr) against sut.
func Run(sut serve.Service, hdr capture.Header, events []capture.Event, opts Options) (*Result, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{Events: len(events)}
	r := &runner{sut: sut, ref: opts.Reference, opts: opts, res: res,
		halted: map[int]bool{}, home: map[serve.GlobalID]int{}, alive: map[serve.GlobalID]bool{}}
	for _, id := range sut.Nodes() {
		r.alive[id] = true
		r.home[id] = id.Shard()
	}
	start := time.Now()
	var lats []time.Duration
	for i := range events {
		ev := &events[i]
		if opts.Pace == PaceRecorded {
			if d := time.Until(start.Add(ev.At)); d > 0 {
				time.Sleep(d)
			}
		}
		switch ev.Kind {
		case capture.EvQuery:
			res.Queries++
			t0 := time.Now()
			lats = append(lats, r.query(ev, t0))
		case capture.EvMutation:
			res.Mutations++
			r.mutate(ev)
		case capture.EvFault:
			res.Faults++
			r.fault(ev, logf)
		}
	}
	res.Wall = time.Since(start)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	// Final-state reconciliation: the target's node set vs what the
	// acked write sequence implies.
	fin := map[serve.GlobalID]bool{}
	for _, id := range sut.Nodes() {
		fin[id] = true
	}
	for id := range r.alive {
		if !fin[id] {
			res.LostWrites++
		}
	}
	for id := range fin {
		if !r.alive[id] {
			res.ExtraNodes++
		}
	}
	if st, ok := sut.(statser); ok {
		res.Imbalance = imbalance(st.Stats(), r.halted)
	}
	return res, nil
}

// runner carries the per-run replay state.
type runner struct {
	sut  serve.Service
	ref  *serve.Engine
	opts Options
	res  *Result

	halted map[int]bool
	// home tracks each live node's current shard (updated on join and
	// migration) so writes hitting a halted shard are recognized as
	// expected rejections, not loss.
	home  map[serve.GlobalID]int
	alive map[serve.GlobalID]bool
}

func (r *runner) query(ev *capture.Event, t0 time.Time) time.Duration {
	req := serve.QueryRequest{Demand: vector.Vec(ev.Demand), K: ev.K,
		Consistent: ev.Consistent, NoCache: ev.NoCache}
	resp, err := r.sut.QueryAppend(nil, req)
	lat := time.Since(t0)
	if err != nil {
		r.res.QueryErrors++
	} else {
		dig := capture.Digest(resp.Candidates)
		if r.opts.Strict && dig != ev.Digest {
			r.res.DigestMismatches++
		}
		mismatch := false
		if r.ref != nil {
			refReq := req
			refReq.NoCache = true
			refResp, refErr := r.ref.Query(refReq)
			mismatch = refErr != nil || capture.Digest(refResp.Candidates) != dig
		}
		if ref, ok := r.sut.(refereed); ok && !req.Consistent {
			mismatch = mismatch || capture.Digest(ref.Referee(req.Demand, req.K)) != dig
		}
		if mismatch {
			r.res.RefMismatches++
		}
	}
	if r.opts.OnQuery != nil {
		r.opts.OnQuery(ev, resp, err)
	}
	return lat
}

// mutate replays one recorded mutation. Updates and leaves address
// the node's external id; joins target the recorded shard and verify
// the assigned id; a repoint-join (the destination half of a
// migration) is replayed as one Migrate call, and the matching take
// record is skipped when it arrives.
func (r *runner) mutate(ev *capture.Event) {
	rec, shard := ev.Rec, ev.Shard
	expectHalted := r.halted[shard]
	apply := func(do func(s serve.Service) error) (acked bool) {
		err := do(r.sut)
		if r.ref != nil {
			// The reference mirrors every ack and rejection: both
			// engines saw the same faults, so they fail together.
			do(r.ref)
		}
		switch {
		case err == nil:
			r.res.AckedWrites++
			return true
		case expectHalted:
			r.res.RejectedOnHalted++
		default:
			r.res.WriteErrors++
		}
		return false
	}
	switch rec.Kind {
	case wal.KindUpdate:
		ext := serve.Global(shard, overlay.NodeID(rec.Node)) // any id a node was known by addresses it
		if h, ok := r.home[ext]; ok {
			expectHalted = r.halted[h]
		}
		apply(func(s serve.Service) error {
			return s.Update(ext, vector.Vec(rec.Avail), rec.Announce)
		})
	case wal.KindJoin:
		if rec.Repoint {
			// Destination half of a migration: replay the whole move.
			old := serve.GlobalID(rec.Old)
			ext := serve.GlobalID(rec.Ext)
			if h, ok := r.home[ext]; ok && (r.halted[h] || r.halted[shard]) {
				expectHalted = true
			}
			m, ok := r.sut.(migrator)
			if !ok {
				r.res.WriteErrors++
				return
			}
			if apply(func(serve.Service) error { return m.Migrate(old, shard) }) {
				r.home[ext] = shard
			}
			return
		}
		want := serve.Global(shard, overlay.NodeID(rec.Node))
		var got serve.GlobalID
		if apply(func(s serve.Service) error {
			var err error
			got, err = s.JoinOn(shard, vector.Vec(rec.Avail))
			return err
		}) {
			if got != want {
				r.res.JoinDivergence++
			}
			r.alive[got] = true
			r.home[got] = shard
		}
	case wal.KindLeave:
		ext := serve.Global(shard, overlay.NodeID(rec.Node)) // any id a node was known by addresses it
		if h, ok := r.home[ext]; ok {
			expectHalted = r.halted[h]
		}
		if apply(func(s serve.Service) error {
			return s.Leave(ext)
		}) {
			delete(r.alive, ext)
			delete(r.home, ext)
		}
	case wal.KindTake:
		// The local-migration take: its work is replayed by the
		// matching repoint-join's Migrate. Nothing to do here.
	}
}

func (r *runner) fault(ev *capture.Event, logf func(string, ...any)) {
	inject := func(target any) bool {
		switch ev.Fault {
		case capture.FaultHaltShard, capture.FaultKillMember:
			if h, ok := target.(shardHalter); ok {
				h.HaltShard(ev.Target)
				return true
			}
		case capture.FaultPromote:
			if p, ok := target.(promoter); ok {
				p.Promote()
				return true
			}
		case capture.FaultRebalance:
			if rb, ok := target.(rebalancer); ok {
				rb.Rebalance()
				return true
			}
		}
		return false
	}
	ok := inject(r.sut)
	if r.ref != nil {
		inject(r.ref)
	}
	if !ok {
		r.res.FaultsSkipped++
		logf("replay: fault %d on target %d skipped (unsupported by target)", ev.Fault, ev.Target)
		return
	}
	if ev.Fault == capture.FaultHaltShard || ev.Fault == capture.FaultKillMember {
		r.halted[ev.Target] = true
	}
}

// imbalance is the max/min shard population ratio over non-halted,
// populated shards (1 when fewer than two such shards exist).
func imbalance(st serve.Stats, halted map[int]bool) float64 {
	min, max, n := 0, 0, 0
	for _, sh := range st.Shards {
		if halted[sh.Shard] {
			continue
		}
		if n == 0 || sh.Nodes < min {
			min = sh.Nodes
		}
		if sh.Nodes > max {
			max = sh.Nodes
		}
		n++
	}
	if n < 2 || min == 0 {
		if max > 0 && min == 0 && n >= 2 {
			return float64(max)
		}
		return 1
	}
	return float64(max) / float64(min)
}

// EngineConfig is the serve.Config a trace header implies — the
// shape Run's determinism contract needs the target built from.
// Callers layer their own knobs (DataDir, cache/index switches) on
// top.
func EngineConfig(hdr capture.Header) serve.Config {
	return serve.Config{
		Shards:        hdr.Shards,
		NodesPerShard: hdr.NodesPerShard,
		Seed:          hdr.Seed,
		CMax:          vector.Vec(hdr.CMax),
	}
}
