package fed

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// Config parameterizes a Router.
type Config struct {
	// Members lists each federation member's wire addresses, primary
	// first; later entries are promotable followers the router
	// rotates to after fail-over.
	Members [][]string

	// CMax is the engines' capacity vector. When nil, the router
	// discovers it from the first member that answers a stats call.
	CMax vector.Vec

	// ScatterTimeout bounds a whole cross-member gather (default
	// 2s — remote legs ride real networks, not channel hops).
	ScatterTimeout time.Duration

	// ForwardGrace bounds how long a migrated-away id stays routable
	// after its last repoint (default 1m).
	ForwardGrace time.Duration

	// SummaryTTL bounds how old a member's availability summary may
	// be and still prune that member's scatter leg (default 1s).
	// Stale, missing or write-dirtied summaries force the full
	// fan-out for that member.
	SummaryTTL time.Duration

	// SummaryRefresh is the period of the background summary
	// exchange with every member (default 250ms). Below 0 it disables
	// the loop: the router adopts summaries only when RefreshSummaries
	// is called, and until then it prunes no leg.
	SummaryRefresh time.Duration

	// AfterTake, when non-nil, runs between a migration's take and
	// its destination re-join — a crash-injection point for tests.
	AfterTake func()
}

// Stats is the router's /stats (and wire OpStats) document.
type Stats struct {
	CMax         vector.Vec    `json:"cmax"`
	Map          []Member      `json:"map"`
	Members      []MemberStats `json:"members"`
	Queries      uint64        `json:"queries"`
	Updates      uint64        `json:"updates"`
	Joins        uint64        `json:"joins"`
	Leaves       uint64        `json:"leaves"`
	Migrations   uint64        `json:"migrations"`
	Errors       uint64        `json:"errors"`
	ForwardedIDs int           `json:"forwarded_ids"`
	// LegsSent counts gather legs actually dispatched by snapshot
	// queries; LegsPruned counts legs skipped because a member's
	// availability summary proved it could not satisfy the demand.
	// Their sum is what an unpruned router would have sent.
	LegsSent   uint64 `json:"fed_legs_sent"`
	LegsPruned uint64 `json:"fed_legs_pruned"`
	// PipelineDepth is the mean in-flight request count observed on
	// the shared member connections at submit time — >1 means
	// concurrent legs are batching onto shared flushes.
	PipelineDepth float64 `json:"fed_pipeline_depth"`
}

// MemberStats describes one member in Stats.
type MemberStats struct {
	Index int    `json:"index"`
	Addr  string `json:"addr"` // address currently in use (rotates on fail-over)
	Epoch uint64 `json:"epoch"`
	// SummaryPop is the record count behind the member's last
	// adopted availability summary (-1: none held), SummaryAgeMS its
	// age — the observability behind "why wasn't this leg pruned".
	SummaryPop   int   `json:"summary_pop"`
	SummaryAgeMS int64 `json:"summary_age_ms"`
}

// Router federates primary processes behind the serve.Service
// surface: snapshot queries scatter-gather across the members
// (fedScatter, over the members' pipelined connections), a consistent
// query asks one member round-robin, writes, takes and
// migrations run the placement operations of its serve.ForwardTable
// over the members — the code an Engine runs over its shards — and a
// member's promotion is learned from the replication epoch on that
// member's own responses, by this router alone: there is nothing to
// tell the members or another router.
type Router struct {
	mu sync.Mutex // guards the Epoch fields of m
	m  []Member   // the federation map: configured addresses, observed epochs

	epoch   atomic.Uint64 // Epoch(): 1 + the times a member's recorded epoch rose
	members []*RemotePrimary
	places  []serve.Placement // members behind the Placement interface, same order
	fwd     *serve.ForwardTable
	cmax    vector.Vec

	scatterTimeout time.Duration
	afterTake      func()

	// Demand-region pruning state: sums holds each member's last
	// adopted availability summary; wstart/wdone count writes routed
	// to each member (bumped at call start and completion) — the
	// dirty-tracking that invalidates a summary the moment a write
	// might have outrun it.
	summaryTTL time.Duration
	sums       []atomic.Pointer[memberSummary]
	wstart     []atomic.Uint64
	wdone      []atomic.Uint64

	stop       chan struct{}
	closed     atomic.Bool
	refreshing atomic.Bool

	rrJoin  atomic.Uint64
	rrQuery atomic.Uint64

	queries    atomic.Uint64
	updates    atomic.Uint64
	joins      atomic.Uint64
	leaves     atomic.Uint64
	migrations atomic.Uint64
	errors     atomic.Uint64
	legsSent   atomic.Uint64
	legsPruned atomic.Uint64
}

// memberSummary is the router's adopted copy of one member's
// availability summary plus the local anchors that bound its
// validity: at (receipt time, aged against SummaryTTL) and wseq (the
// member's wstart counter when the exchange began — any later write
// to the member shifts the counter and dirties the summary until a
// post-write refresh).
type memberSummary struct {
	max  vector.Vec
	pop  uint32
	seq  uint64
	at   time.Time
	wseq uint64
}

var _ serve.Service = (*Router)(nil)

// New connects a router to its federation members and discovers the
// capacity vector if not configured.
func New(cfg Config) (*Router, error) {
	n := len(cfg.Members)
	if n == 0 {
		return nil, fmt.Errorf("fed: no members configured")
	}
	r := &Router{
		m:              make([]Member, n),
		cmax:           cfg.CMax,
		scatterTimeout: cfg.ScatterTimeout,
		afterTake:      cfg.AfterTake,
		stop:           make(chan struct{}),
	}
	if r.scatterTimeout <= 0 {
		r.scatterTimeout = 2 * time.Second
	}
	grace := cfg.ForwardGrace
	if grace <= 0 {
		grace = time.Minute
	}
	r.summaryTTL = cfg.SummaryTTL
	if r.summaryTTL <= 0 {
		r.summaryTTL = time.Second
	}
	r.sums = make([]atomic.Pointer[memberSummary], n)
	r.wstart = make([]atomic.Uint64, n)
	r.wdone = make([]atomic.Uint64, n)
	r.fwd = serve.NewForwardTable(grace, memberOf, r.stop)
	r.epoch.Store(1)
	for i, addrs := range cfg.Members {
		rp := NewRemotePrimary(i, addrs, r.fwd)
		r.m[i] = Member{Index: i, Addrs: append([]string(nil), addrs...)}
		rp.writeEpoch = r.epochOf
		rp.onEpoch = r.observeEpoch
		rp.writeBegin = r.noteWriteStart
		rp.writeEnd = r.noteWriteEnd
		r.members = append(r.members, rp)
		r.places = append(r.places, rp)
	}
	if r.cmax == nil {
		if err := r.discoverCMax(); err != nil {
			r.Close()
			return nil, err
		}
	}
	refresh := cfg.SummaryRefresh
	if refresh == 0 {
		refresh = 250 * time.Millisecond
	}
	if refresh > 0 {
		go r.summaryLoop(refresh)
	}
	return r, nil
}

func (r *Router) noteWriteStart(member int) {
	if member < len(r.wstart) {
		r.wstart[member].Add(1)
	}
}

func (r *Router) noteWriteEnd(member int) {
	if member < len(r.wdone) {
		r.wdone[member].Add(1)
	}
}

// discoverCMax reads the capacity vector from the first member whose
// stats call answers.
func (r *Router) discoverCMax() error {
	var lastErr error
	for _, rp := range r.members {
		var st struct {
			CMax []float64 `json:"cmax"`
		}
		err := rp.do(
			func(c *wire.Client) uint32 { return c.EnqueueStats() },
			func(resp *wire.Response) error { return json.Unmarshal(resp.Stats, &st) },
		)
		if err != nil {
			lastErr = err
			continue
		}
		if len(st.CMax) == 0 {
			lastErr = fmt.Errorf("fed: member %d reports no capacity vector", rp.member)
			continue
		}
		r.cmax = vector.Vec(st.CMax)
		return nil
	}
	return fmt.Errorf("fed: capacity discovery failed: %w", lastErr)
}

// Close drops every member's connection. In-flight operations
// unwind with serve.ErrClosed.
func (r *Router) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return serve.ErrClosed
	}
	close(r.stop)
	for _, rp := range r.members {
		rp.Close()
	}
	return nil
}

// CMax returns the federation's capacity vector.
func (r *Router) CMax() vector.Vec { return r.cmax }

// Map returns a copy of the federation map: every member's index,
// configured addresses and last observed replication epoch.
func (r *Router) Map() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Member(nil), r.m...)
}

// epochOf returns the member's recorded replication epoch (stamped
// into its write frames, fencing deposed primaries).
func (r *Router) epochOf(member int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[member].Epoch
}

// observeEpoch records a member answering with a replication epoch
// above the recorded one: first contact, or evidence of a promotion.
// The next write to the member is stamped with it, and the router's
// own epoch moves so clients of its wire edge can tell something
// changed.
func (r *Router) observeEpoch(member int, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch > r.m[member].Epoch {
		r.m[member].Epoch = epoch
		r.epoch.Add(1)
	}
}

// summaryLoop periodically fetches every member's availability
// summary until the router closes.
func (r *Router) summaryLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.RefreshSummaries()
		}
	}
}

// RefreshSummaries runs one synchronous summary exchange with every
// member: a member's availability summary is adopted when no
// router-routed write to that member was in flight around the
// exchange — a write racing the summary could land after the member
// computed it, and a summary that might under-state the member must
// never prune it. Adopted summaries stay valid until SummaryTTL ages
// them out or a later write to the member dirties them. Concurrent
// calls coalesce.
func (r *Router) RefreshSummaries() {
	if r.closed.Load() || !r.refreshing.CompareAndSwap(false, true) {
		return
	}
	defer r.refreshing.Store(false)
	for i, rp := range r.members {
		if r.closed.Load() {
			return
		}
		w0 := r.wstart[i].Load()
		clean := w0 == r.wdone[i].Load()
		sum, err := rp.Summary()
		if err != nil || sum == nil || !clean {
			continue
		}
		if old := r.sums[i].Load(); old != nil && sum.Seq < old.seq {
			continue // never regress to an older member state
		}
		r.sums[i].Store(&memberSummary{
			max:  vector.Vec(sum.Max),
			pop:  sum.Pop,
			seq:  sum.Seq,
			at:   time.Now(),
			wseq: w0,
		})
	}
}

// summaryOf returns member i's currently valid summary, or nil when
// pruning must fall back to the full fan-out for it: none held, aged
// past SummaryTTL, or router-routed writes landed on the member
// since it was taken.
func (r *Router) summaryOf(i int, now time.Time) *memberSummary {
	s := r.sums[i].Load()
	if s == nil || now.Sub(s.at) > r.summaryTTL || r.wstart[i].Load() != s.wseq {
		return nil
	}
	return s
}

// canSatisfy reports whether a member whose summary is s could hold
// a record dominating demand: it has records at all and its
// per-dimension maximum dominates demand in every dimension. The max
// vector is an upper bound over the member's records (expiry
// ignored), so !canSatisfy proves the member contributes no
// candidate for this demand — pruning its leg cannot change the
// merged candidate set.
func canSatisfy(s *memberSummary, demand vector.Vec) bool {
	if s.pop == 0 {
		return false
	}
	if len(s.max) != len(demand) {
		return true // dimension surprise: never prune on it
	}
	return s.max.Dominates(demand)
}

// scatterTargets prunes the scatter list down to the members whose
// summaries do not prove them unable to satisfy demand. Members
// without a valid summary are always kept — stale falls back to full
// fan-out, never to a wrong answer.
func (r *Router) scatterTargets(demand vector.Vec) ([]*RemotePrimary, int) {
	now := time.Now()
	var keep []*RemotePrimary
	pruned := 0
	for i, rp := range r.members {
		s := r.summaryOf(i, now)
		if s != nil && !canSatisfy(s, demand) {
			if keep == nil {
				keep = append(make([]*RemotePrimary, 0, len(r.members)), r.members[:i]...)
			}
			pruned++
			continue
		}
		if keep != nil {
			keep = append(keep, rp)
		}
	}
	if keep == nil {
		return r.members, 0
	}
	return keep, pruned
}

// Query answers one best-fit query across the federation: a
// consistent query round-robins a single member's protocol
// (ForwardTable.QueryOne), a snapshot query gathers every member its
// summary does not prune (fedScatter) — partial merges when a member
// is down, one whole-gather deadline.
func (r *Router) Query(req serve.QueryRequest) (serve.QueryResponse, error) {
	if r.closed.Load() {
		return serve.QueryResponse{}, serve.ErrClosed
	}
	if err := serve.CheckDemand(req.Demand, r.cmax); err != nil {
		r.errors.Add(1)
		return serve.QueryResponse{}, err
	}
	if req.K <= 0 {
		req.K = 1
	}
	r.queries.Add(1)
	if req.Consistent {
		resp, err := r.fwd.QueryOne(r.places, r.rrQuery.Add(1)-1, req)
		if err != nil {
			r.errors.Add(1)
		}
		return resp, err
	}
	// Demand-region pruning: skip legs whose summary proves the
	// member cannot satisfy the demand.
	targets, pruned := r.scatterTargets(req.Demand)
	r.legsSent.Add(uint64(len(targets)))
	r.legsPruned.Add(uint64(pruned))
	if len(targets) == 0 {
		// Every member provably empty-handed: an honest miss without
		// a single network hop.
		return serve.QueryResponse{ShardsQueried: 0}, nil
	}
	resp, err := r.fedScatter(targets, req)
	if err != nil {
		r.errors.Add(1)
		return serve.QueryResponse{}, err
	}
	resp.Candidates = r.fwd.Externalize(resp.Candidates)
	return resp, nil
}

// legCall is one gather leg in flight: done delivers the pipelined
// response's outcome (nil: the leg could not be enqueued), collect
// turns it into the leg — see RemotePrimary.QueryLegAsync.
type legCall struct {
	done    chan error
	collect func(error) (serve.PlacementLeg, error)
}

// fedScatter runs one scatter-gather across targets entirely on the
// calling goroutine: every leg is enqueued up front through the
// members' shared pipelined connections (QueryLegAsync) — one flush
// train often carries all of them — and then gathered against one
// whole-gather deadline, the merged candidates ranked best-fit first
// and cut to req.K. Partial gathers merge, the query fails only when
// no leg succeeds, and legs outstanding at the deadline are abandoned.
// A member leg is an enqueue and a channel receive, so the router
// spends zero goroutines per query, which is most of a busy router's
// per-query cost.
func (r *Router) fedScatter(targets []*RemotePrimary, req serve.QueryRequest) (serve.QueryResponse, error) {
	cands, resp, err := gatherLegs(startLegs(targets, req), r.scatterTimeout)
	if err != nil {
		return serve.QueryResponse{}, err
	}
	resp.Candidates = serve.RankCandidates(cands, req.K)
	return resp, nil
}

// startLegs enqueues one leg per target.
func startLegs(targets []*RemotePrimary, req serve.QueryRequest) []legCall {
	pend := make([]legCall, 0, len(targets))
	for _, rp := range targets {
		done, collect := rp.QueryLegAsync(req)
		pend = append(pend, legCall{done: done, collect: collect})
	}
	return pend
}

// gatherLegs collects the legs against one whole-gather deadline and
// returns the union of their candidates, unranked and uncut, with the
// hop accounting in resp. Legs still outstanding at the deadline are
// abandoned (their completion sends land in the calls' buffered
// channels); the error is non-nil only when no leg succeeded.
func gatherLegs(pend []legCall, timeout time.Duration) (cands []serve.Candidate, resp serve.QueryResponse, firstErr error) {
	var (
		deadline *time.Timer // created only if a leg makes us block
		timedOut = false
	)
	for _, lc := range pend {
		var lerr error
		if lc.done != nil {
			select {
			case lerr = <-lc.done:
				// Fast path: the pipelined response already landed —
				// no select against the timer, which under load is
				// where most legs complete.
				donePool.Put(lc.done)
			default:
				if timedOut {
					// Past the deadline: abandon the leg (never return
					// an abandoned channel to the pool — its send is
					// still owed).
					continue
				}
				if deadline == nil {
					deadline = time.NewTimer(timeout)
					defer deadline.Stop()
				}
				select {
				case lerr = <-lc.done:
					donePool.Put(lc.done)
				case <-deadline.C:
					timedOut = true
					if firstErr == nil {
						firstErr = fmt.Errorf("%w: after %v (%d of %d legs gathered)",
							serve.ErrScatterTimeout, timeout, resp.ShardsQueried, len(pend))
					}
					continue
				}
			}
		}
		leg, err := lc.collect(lerr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		resp.ShardsQueried += leg.Queried
		resp.Hops += leg.Hops
		cands = append(cands, leg.Cands...)
	}
	if resp.ShardsQueried == 0 {
		return nil, serve.QueryResponse{}, firstErr
	}
	return cands, resp, nil
}

// Update republishes a node's availability, by any id it was ever
// known by, chasing it across a racing migration.
func (r *Router) Update(node serve.GlobalID, avail vector.Vec, announce bool) error {
	if r.closed.Load() {
		return serve.ErrClosed
	}
	if err := r.fwd.Apply(r.places, node, func(p serve.Placement, phys serve.GlobalID) error {
		return p.Update(phys, avail, announce)
	}); err != nil {
		r.errors.Add(1)
		return err
	}
	r.updates.Add(1)
	return nil
}

// Join places a node on the least-recently-joined member (round-robin
// starting at member 0), as Engine.Join does over shards.
func (r *Router) Join(avail vector.Vec) (serve.GlobalID, error) {
	return r.JoinOn(int((r.rrJoin.Add(1)-1)%uint64(len(r.members))), avail)
}

// JoinOn places a node on one member by index.
func (r *Router) JoinOn(member int, avail vector.Vec) (serve.GlobalID, error) {
	if r.closed.Load() {
		return 0, serve.ErrClosed
	}
	if member < 0 || member >= len(r.members) {
		r.errors.Add(1)
		return 0, fmt.Errorf("%w: member %d (join target)", serve.ErrNoShard, member)
	}
	id, err := r.members[member].Join(avail)
	if err != nil {
		r.errors.Add(1)
		return 0, err
	}
	r.joins.Add(1)
	return id, nil
}

// Leave removes a node permanently, by any id it was ever known by.
func (r *Router) Leave(node serve.GlobalID) error {
	if r.closed.Load() {
		return serve.ErrClosed
	}
	if err := r.fwd.Apply(r.places, node, serve.Placement.Leave); err != nil {
		r.errors.Add(1)
		return err
	}
	r.leaves.Add(1)
	return nil
}

// Take removes a node for re-homing outside the federation. An error
// wrapping serve.ErrWAL means applied-but-not-durable on the owning
// member, with the availability still valid.
func (r *Router) Take(node serve.GlobalID) (vector.Vec, error) {
	if r.closed.Load() {
		return nil, serve.ErrClosed
	}
	avail, err := r.fwd.Take(r.places, node, true)
	if err != nil {
		r.errors.Add(1)
	}
	if err == nil || errors.Is(err, serve.ErrWAL) {
		r.leaves.Add(1)
	}
	return avail, err
}

// Migrate moves a node to another member — the engine's in-process
// migration over the wire (serve.ForwardTable.Migrate has the
// contract). The take is an out-take: the member logs it as a plain
// leave, because the re-join lands in another process's log.
func (r *Router) Migrate(node serve.GlobalID, to int) error {
	if r.closed.Load() {
		return serve.ErrClosed
	}
	moved, err := r.fwd.Migrate(r.places, node, to, true, r.afterTake)
	if moved {
		r.migrations.Add(1)
	}
	if err != nil {
		r.errors.Add(1)
	}
	return err
}

// Nodes lists every alive node across the federation by its stable
// external id: a zero-demand uncached scatter (zero demand is
// dominated by every availability, so every member returns its whole
// population) whose union is neither ranked nor cut. Each member's
// own answer is still capped at 65 535 nodes — K is a u16 on the wire
// — so a member holding more is listed in part.
func (r *Router) Nodes() []serve.GlobalID {
	if r.closed.Load() {
		return nil
	}
	req := serve.QueryRequest{
		Demand:  make(vector.Vec, r.cmax.Dim()),
		K:       0xFFFF,
		NoCache: true,
	}
	ids, err := r.mergeNodes(startLegs(r.members, req))
	if err != nil {
		r.errors.Add(1)
	}
	return ids
}

// mergeNodes gathers a listing's legs into the federation's node set.
func (r *Router) mergeNodes(pend []legCall) ([]serve.GlobalID, error) {
	cands, _, err := gatherLegs(pend, r.scatterTimeout)
	if err != nil {
		return nil, err
	}
	ids := make([]serve.GlobalID, len(cands))
	for i := range cands {
		ids[i] = cands[i].Node
	}
	return r.fwd.Nodes(ids), nil
}

// Epoch is the router's own epoch: a local counter, 1 at start, that
// moves each time a member's recorded epoch rises (first contact, then
// every fail-over). It stamps the responses of the router's wire edge;
// two routers' counters are unrelated.
func (r *Router) Epoch() uint64 { return r.epoch.Load() }

// Fence is a no-op: the router holds no writable state to fence.
func (r *Router) Fence(epoch uint64) {}

// PrimaryAddr returns "": the router accepts writes itself.
func (r *Router) PrimaryAddr() string { return "" }

// StatsPayload assembles the router's stats document.
func (r *Router) StatsPayload() any {
	st := Stats{
		CMax:         r.cmax,
		Map:          r.Map(),
		Queries:      r.queries.Load(),
		Updates:      r.updates.Load(),
		Joins:        r.joins.Load(),
		Leaves:       r.leaves.Load(),
		Migrations:   r.migrations.Load(),
		Errors:       r.errors.Load(),
		ForwardedIDs: r.fwd.Count(),
		LegsSent:     r.legsSent.Load(),
		LegsPruned:   r.legsPruned.Load(),
	}
	var dsum, dn uint64
	now := time.Now()
	for i, rp := range r.members {
		s, n := rp.depthStats()
		dsum += s
		dn += n
		ms := MemberStats{
			Index:      i,
			Addr:       rp.Addr(),
			Epoch:      st.Map[i].Epoch,
			SummaryPop: -1,
		}
		if sum := r.sums[i].Load(); sum != nil {
			ms.SummaryPop = int(sum.pop)
			ms.SummaryAgeMS = now.Sub(sum.at).Milliseconds()
		}
		st.Members = append(st.Members, ms)
	}
	if dn > 0 {
		st.PipelineDepth = float64(dsum) / float64(dn)
	}
	return st
}
