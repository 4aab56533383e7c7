package fed

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// RemotePrimary adapts one federation member — a whole primary
// process reached over the wire protocol — to the serve.Placement
// interface, so the chase/take/migrate code written over placements
// (serve.ForwardTable) drives remote processes as it drives shards.
//
// The transport is one shared pipelined connection (wire.Mux):
// concurrent scatter legs and router requests enqueue onto it and a
// single flush carries them all, so a leg costs a fraction of an RTT
// instead of a synchronous exchange — and every concurrent leg lands
// in the same flush train, which is where the syscall amortization
// comes from.
// The member's address list rotates on transport failure or
// read-only answers — after a fail-over the router converges onto
// the promoted follower without configuration changes — and repeated
// dial failures back off with jitter instead of hammering a dead
// address. Every operation retries over the rotation; writes
// interrupted mid-flight are at-most-once (the retry may find the
// first attempt applied and surface the member's rejection).
type RemotePrimary struct {
	member int

	mu    sync.Mutex
	addrs []string
	cur   int
	conn  *wire.Mux // dialed lazily, replaced when failed or rotated away
	cAddr string    // the address conn is connected to
	// Dial backoff: consecutive failures gate redials exponentially
	// (jittered); rotation clears the gate — it belongs to the
	// address that failed, not to its fallback.
	dialFails   int
	nextDial    time.Time
	lastDialErr error
	closed      bool

	// depthSum/depthN sample the pipeline depth seen at submit time
	// (in-flight calls on the chosen conn, this one included) — the
	// feed behind the router's fed_pipeline_depth stat.
	depthSum atomic.Uint64
	depthN   atomic.Uint64

	// fwd is the owning router's forwarding table: Leave drops the
	// node's entries, CompleteMigration repoints them.
	fwd *serve.ForwardTable

	// Router hooks (any may be nil): writeEpoch fences writes with the
	// member's recorded epoch, onEpoch feeds fail-over evidence back
	// to the router, and writeBegin/writeEnd bracket every write
	// routed to this member (the router's summary dirty-tracking).
	writeEpoch func(member int) uint64
	onEpoch    func(member int, epoch uint64)
	writeBegin func(member int)
	writeEnd   func(member int)
}

var _ serve.Placement = (*RemotePrimary)(nil)

// NewRemotePrimary builds a member placement without router hooks:
// addrs is the member's wire address list, primary first; fwd is the
// forwarding table of the placement set it belongs to.
func NewRemotePrimary(member int, addrs []string, fwd *serve.ForwardTable) *RemotePrimary {
	return &RemotePrimary{
		member: member,
		addrs:  append([]string(nil), addrs...),
		fwd:    fwd,
	}
}

// Addr returns the member address currently in use.
func (r *RemotePrimary) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addrs[r.cur]
}

// Close closes the member connection and fails subsequent calls
// with serve.ErrClosed.
func (r *RemotePrimary) Close() {
	r.mu.Lock()
	r.closed = true
	mc := r.conn
	r.conn = nil
	r.mu.Unlock()
	if mc != nil {
		mc.Close()
	}
}

// backoffAfter is the jittered redial gate after fails consecutive
// dial failures: exponential from 25ms, capped at 1.6s, uniformly
// jittered over [d/2, d) so a fleet of routers never reconverges on
// a recovering member in lockstep.
func backoffAfter(fails int) time.Duration {
	shift := fails
	if shift > 6 {
		shift = 6
	}
	d := 25 * time.Millisecond << shift
	return d/2 + time.Duration(rand.Int64N(int64(d/2)))
}

// getConn returns the healthy shared connection to the member's
// current address, replacing a dead or rotated-away one by dialing
// (outside the lock) — or failing fast while the backoff gate holds.
func (r *RemotePrimary) getConn() (*wire.Mux, string, error) {
	for tries := 0; tries < 2; tries++ {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, "", serve.ErrClosed
		}
		addr := r.addrs[r.cur]
		if mc := r.liveConn(addr); mc != nil {
			r.mu.Unlock()
			return mc, addr, nil
		}
		if now := time.Now(); now.Before(r.nextDial) {
			err := r.lastDialErr
			r.mu.Unlock()
			return nil, addr, fmt.Errorf("dial backoff: %w", err)
		}
		r.mu.Unlock()

		c, err := wire.Dial(addr)

		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			if err == nil {
				c.Close()
			}
			return nil, addr, serve.ErrClosed
		}
		if err != nil {
			r.dialFails++
			r.lastDialErr = err
			r.nextDial = time.Now().Add(backoffAfter(r.dialFails))
			r.mu.Unlock()
			return nil, addr, err
		}
		r.dialFails = 0
		r.nextDial = time.Time{}
		if addr != r.addrs[r.cur] {
			// Rotated away mid-dial: don't install a connection to the
			// abandoned address — loop and re-evaluate.
			r.mu.Unlock()
			c.Close()
			continue
		}
		if mc := r.liveConn(addr); mc != nil {
			// A concurrent caller already replaced it.
			r.mu.Unlock()
			c.Close()
			return mc, addr, nil
		}
		old := r.conn
		mc := wire.NewMux(c)
		r.conn, r.cAddr = mc, addr
		r.mu.Unlock()
		if old != nil {
			old.Close()
		}
		return mc, addr, nil
	}
	return nil, "", fmt.Errorf("fed: member %d: address rotated repeatedly mid-dial", r.member)
}

// liveConn returns the member connection if it is healthy and
// connected to addr. Callers hold r.mu.
func (r *RemotePrimary) liveConn(addr string) *wire.Mux {
	if r.conn == nil || r.cAddr != addr || r.conn.Failed() {
		return nil
	}
	return r.conn
}

// rotate advances to the member's next fallback address, if addr is
// still the one that failed (concurrent failures rotate once). The
// dial-backoff gate resets: a fresh address deserves an immediate
// dial.
func (r *RemotePrimary) rotate(addr string) {
	r.mu.Lock()
	if !r.closed && addr == r.addrs[r.cur] && len(r.addrs) > 1 {
		r.cur = (r.cur + 1) % len(r.addrs)
		r.nextDial = time.Time{}
		r.dialFails = 0
	}
	r.mu.Unlock()
}

func (r *RemotePrimary) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// beginWrite brackets one write routed to this member for the
// router's summary dirty-tracking; the returned func marks its
// completion. Usage: defer r.beginWrite()().
func (r *RemotePrimary) beginWrite() func() {
	if r.writeBegin != nil {
		r.writeBegin(r.member)
	}
	if r.writeEnd == nil {
		return func() {}
	}
	return func() { r.writeEnd(r.member) }
}

// pendingCall is one request in flight on the member connection:
// enq appends its frame, on consumes a non-errored response on the
// connection's reader goroutine.
type pendingCall struct {
	enq   func(c *wire.Client) uint32
	on    func(resp *wire.Response) error
	done  chan error // delivers the call's outcome exactly once
	epoch uint64     // the response's epoch; valid once done has delivered
}

func (pc *pendingCall) Enqueue(c *wire.Client) uint32 { return pc.enq(c) }

// Done hands the outcome to done: a server rejection as its
// *wire.Error, a connection failure as the error that failed it.
func (pc *pendingCall) Done(resp *wire.Response, err error) {
	if err == nil {
		pc.epoch = resp.Epoch
		if resp.Errored {
			e := resp.Err
			err = &e
		} else {
			err = pc.on(resp)
		}
	}
	pc.done <- err
}

// donePool recycles the per-call completion channels: a call's
// channel is empty again after its receive, so it is safe to hand to
// the next call instead of allocating one per request. A caller that
// abandons the wait must not return it (the late send still lands in
// the buffer).
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

// begin starts one request on mc, stamped with the member's recorded
// write epoch. After receiving from the call's done channel, return
// it to donePool and pass the call to observe.
func (r *RemotePrimary) begin(mc *wire.Mux, enq func(c *wire.Client) uint32, on func(resp *wire.Response) error) (*pendingCall, error) {
	var we uint64
	if r.writeEpoch != nil {
		we = r.writeEpoch(r.member)
	}
	r.depthSum.Add(uint64(mc.Inflight() + 1))
	r.depthN.Add(1)
	pc := &pendingCall{enq: enq, on: on, done: donePool.Get().(chan error)}
	if err := mc.Start(we, pc); err != nil {
		donePool.Put(pc.done)
		return nil, err
	}
	return pc, nil
}

// observe reports a completed call's epoch to the router. Every
// response — rejections included — carries the member's replication
// epoch; a jump is the evidence of a promotion, and the only one the
// router gets or needs. (Safe to read after the done receive: the reader
// goroutine's write happens-before it.)
func (r *RemotePrimary) observe(pc *pendingCall) {
	if r.onEpoch != nil && pc.epoch > 0 {
		r.onEpoch(r.member, pc.epoch)
	}
}

// do runs one request — enq appends the frame, on consumes the
// decoded response — over the shared pipelined transport with
// bounded retries: a transport failure or a read-only/not-ready
// answer rotates the address and tries again, a fenced write
// re-stamps the epoch just observed. Three attempts cover the
// longest fail-over walk: dead primary -> transport error -> rotate
// -> promoted follower -> fenced -> re-stamp with the new epoch ->
// applied.
//
// on runs on the connection's reader goroutine; anything it keeps
// from the response must be copied out of the client's reused
// buffers before it returns.
func (r *RemotePrimary) do(enq func(c *wire.Client) uint32, on func(resp *wire.Response) error) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		mc, addr, err := r.getConn()
		if err != nil {
			if errors.Is(err, serve.ErrClosed) {
				return err
			}
			lastErr = fmt.Errorf("fed: member %d unreachable at %s: %w", r.member, addr, err)
			r.rotate(addr)
			continue
		}
		pc, err := r.begin(mc, enq, on)
		if err == nil {
			err = <-pc.done
			donePool.Put(pc.done)
			r.observe(pc)
		}
		if err == nil {
			return nil
		}
		var werr *wire.Error
		if errors.As(err, &werr) {
			// The server answered; the shared connection is healthy
			// and keeps serving.
			switch werr.Code {
			case serve.CodeReadOnly, serve.CodeNotReady:
				lastErr = r.translate(werr)
				r.rotate(addr)
				continue
			case serve.CodeFenced:
				// Our stamped epoch was stale; the observation above
				// recorded the newer one — retry stamps it.
				lastErr = r.translate(werr)
				continue
			}
			return r.translate(werr)
		}
		if errors.Is(err, wire.ErrClosed) && r.isClosed() {
			return serve.ErrClosed
		}
		// Transport error: it failed the shared connection; the next
		// getConn replaces it.
		lastErr = fmt.Errorf("fed: member %d: %w", r.member, err)
		r.rotate(addr)
	}
	return lastErr
}

// translate maps a wire rejection onto the serve sentinel the
// engine-facing code paths already branch on (serve.SentinelOf), so
// call sites never type-switch local placements against remote ones.
func (r *RemotePrimary) translate(we *wire.Error) error {
	sentinel := serve.SentinelOf(we.Code)
	if sentinel == nil {
		return fmt.Errorf("fed: member %d: %w", r.member, we)
	}
	return fmt.Errorf("%w (member %d: %s)", sentinel, r.member, we.Msg)
}

// legWireQuery translates a serve query into its wire form.
func legWireQuery(req serve.QueryRequest) wire.Query {
	wq := wire.Query{
		Demand:     req.Demand,
		K:          req.K,
		Consistent: req.Consistent,
		NoCache:    req.NoCache,
	}
	if wq.K > 0xFFFF || wq.K < 0 {
		wq.K = 0xFFFF // wire K is u16; the merge re-truncates anyway
	}
	return wq
}

// legDecoder returns the response callback that decodes a query
// answer into leg, translating candidate ids into the federation
// namespace. It runs on the connection's reader goroutine, so
// everything kept is copied out of the client's reused buffers.
func (r *RemotePrimary) legDecoder(leg *serve.PlacementLeg) func(resp *wire.Response) error {
	return func(resp *wire.Response) error {
		res := &resp.Query
		leg.Hops, leg.Queried = res.Hops, res.ShardsQueried
		if leg.Queried == 0 {
			leg.Queried = 1 // snapshot path: answered without protocol legs
		}
		// The decode buffers behind cd.Avail are reused on the
		// next response; the leg outlives them. One backing array
		// holds every candidate's copy (one alloc per leg, not
		// one per candidate).
		total := 0
		for _, cd := range res.Candidates {
			total += len(cd.Avail)
		}
		backing := make([]float64, 0, total)
		leg.Cands = make([]serve.Candidate, 0, len(res.Candidates))
		for _, cd := range res.Candidates {
			backing = append(backing, cd.Avail...)
			leg.Cands = append(leg.Cands, serve.Candidate{
				Node:    ID(r.member, serve.GlobalID(cd.Node)),
				Avail:   vector.Vec(backing[len(backing)-len(cd.Avail):]),
				Surplus: cd.Surplus,
			})
		}
		return nil
	}
}

// QueryLeg runs one query against the member and waits for the answer,
// translating candidate ids into the federation namespace. The
// exchange is bounded by the transport's own retries; the router's
// snapshot gather comes through here only when a QueryLegAsync leg
// could not start or failed in flight.
func (r *RemotePrimary) QueryLeg(req serve.QueryRequest) (serve.PlacementLeg, error) {
	wq := legWireQuery(req)
	var leg serve.PlacementLeg
	err := r.do(
		func(c *wire.Client) uint32 { return c.EnqueueQuery(&wq) },
		r.legDecoder(&leg))
	if err != nil {
		return serve.PlacementLeg{}, err
	}
	return leg, nil
}

// QueryLegAsync issues one scatter leg without blocking for its
// response: the frame is enqueued onto a shared pipelined connection
// from the caller's goroutine, and the returned channel delivers the
// leg's outcome exactly once. This lets the router start every leg of
// a scatter and gather them on its own goroutine — no per-leg
// goroutine, no per-leg flush.
//
// done == nil means the fast path could not start (dial
// failure/backoff, dead connection); call collect(nil) and it runs the
// synchronous QueryLeg instead. When done is non-nil, receive from it
// and pass the received error to collect — on any in-flight failure
// collect also falls back to the synchronous path, whose do() owns
// rotation, retries, and error translation (queries are
// idempotent, so re-asking is safe). A caller that abandons the wait
// (timeout) must simply not call collect; the reader's buffered send
// completes regardless.
func (r *RemotePrimary) QueryLegAsync(req serve.QueryRequest) (done chan error, collect func(err error) (serve.PlacementLeg, error)) {
	sync := func(error) (serve.PlacementLeg, error) { return r.QueryLeg(req) }
	mc, _, err := r.getConn()
	if err != nil {
		return nil, sync
	}
	wq := legWireQuery(req)
	leg := new(serve.PlacementLeg)
	pc, err := r.begin(mc,
		func(c *wire.Client) uint32 { return c.EnqueueQuery(&wq) },
		r.legDecoder(leg))
	if err != nil {
		return nil, sync
	}
	collect = func(err error) (serve.PlacementLeg, error) {
		r.observe(pc)
		if err == nil {
			return *leg, nil
		}
		if errors.Is(err, wire.ErrClosed) && r.isClosed() {
			return serve.PlacementLeg{}, serve.ErrClosed
		}
		return r.QueryLeg(req)
	}
	return pc.done, collect
}

func (r *RemotePrimary) Update(node serve.GlobalID, avail vector.Vec, announce bool) error {
	defer r.beginWrite()()
	_, local := SplitID(node)
	return r.do(
		func(c *wire.Client) uint32 { return c.EnqueueUpdate(uint64(local), avail, announce) },
		func(resp *wire.Response) error { return nil },
	)
}

func (r *RemotePrimary) Join(avail vector.Vec) (serve.GlobalID, error) {
	defer r.beginWrite()()
	var id serve.GlobalID
	err := r.do(
		func(c *wire.Client) uint32 { return c.EnqueueJoin(-1, avail) },
		func(resp *wire.Response) error {
			id = ID(r.member, serve.GlobalID(resp.Node))
			return nil
		})
	return id, err
}

func (r *RemotePrimary) Leave(node serve.GlobalID) error {
	defer r.beginWrite()()
	_, local := SplitID(node)
	err := r.do(
		func(c *wire.Client) uint32 { return c.EnqueueLeave(uint64(local)) },
		func(resp *wire.Response) error { return nil },
	)
	if err == nil {
		r.fwd.Forget(node) // removed ids only matter to routing
	}
	return err
}

// Take removes a node from the member for re-homing elsewhere. Seen
// from the member every such take is an out-take — the re-join lands
// in another process — so it always logs a plain leave and the
// parameter changes nothing. A degraded take (applied, not durable on
// the member) surfaces as serve.ErrWAL with the availability still
// valid, matching the in-process contract.
func (r *RemotePrimary) Take(node serve.GlobalID, _ bool) (vector.Vec, error) {
	defer r.beginWrite()()
	_, local := SplitID(node)
	var avail vector.Vec
	var degraded bool
	err := r.do(
		func(c *wire.Client) uint32 { return c.EnqueueFedTake(uint64(local)) },
		func(resp *wire.Response) error {
			avail = vector.Vec(append([]float64(nil), resp.TakeAvail...))
			if len(avail) == 0 {
				avail = nil
			}
			degraded = resp.TakeDegraded
			return nil
		})
	if err != nil {
		return nil, err
	}
	if degraded {
		return avail, fmt.Errorf("%w (member %d)", serve.ErrWAL, r.member)
	}
	return avail, nil
}

// Summary fetches the member's availability summary (nil: the member
// has none to give), copied out of the connection's buffers.
func (r *RemotePrimary) Summary() (*wire.Summary, error) {
	var sum *wire.Summary
	err := r.do(
		func(c *wire.Client) uint32 { return c.EnqueueFedSummary() },
		func(resp *wire.Response) error {
			if resp.SumOK {
				sum = &wire.Summary{
					Seq: resp.Summary.Seq,
					Pop: resp.Summary.Pop,
					Max: append([]float64(nil), resp.Summary.Max...),
				}
			}
			return nil
		})
	return sum, err
}

// CompleteMigration re-joins a taken node on this member and
// repoints the router's forwarding state. Unlike the in-process
// placement, a remote join that fails durability (CodeWAL) is a
// failure, not a degraded success — the acknowledgment crossed a
// process boundary, so the caller must be able to roll back rather
// than leave the node's only copy un-logged in a foreign WAL. The
// error it returns therefore never wraps serve.ErrWAL.
func (r *RemotePrimary) CompleteMigration(avail vector.Vec, ext, old serve.GlobalID) (serve.GlobalID, error) {
	id, err := r.Join(avail)
	if errors.Is(err, serve.ErrWAL) {
		return 0, fmt.Errorf("fed: member %d: migration join not durable: %v", r.member, err)
	}
	if err != nil {
		return 0, err
	}
	r.fwd.Repoint(ext, old, id)
	return id, nil
}

// depthStats returns the cumulative pipeline-depth samples (sum and
// count) taken at submit time.
func (r *RemotePrimary) depthStats() (sum, n uint64) {
	return r.depthSum.Load(), r.depthN.Load()
}
