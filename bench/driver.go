package bench

import (
	"fmt"
	"slices"
	"syscall"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

const (
	queryK = 3
	// wireDepth is how many requests each connection keeps in flight
	// in the closed phase: one flush, then that many in-order reads.
	wireDepth = 16
	// sampleQueries and sampleWrites are the shares of traced
	// operations replayed through the public layer calls (1 in n).
	sampleQueries = 64
	sampleWrites  = 16
	// nSlices is how many equal slices a measured window is cut into;
	// throughput is the median slice's, and a traced run traces the
	// odd slices only, so both halves of the comparison share every
	// drift of the window.
	nSlices = 30
)

type clock struct{ base time.Time }

func (k clock) now() int64 { return int64(time.Since(k.base)) }

// window is one timed stretch of driving, in clock nanoseconds.
type window struct {
	start, end int64
	record     bool // false while warming up
	trace      bool // odd slices record spans and replay samples
}

func (w *window) sliceOf(t int64) int {
	return int((t - w.start) * nSlices / (w.end - w.start))
}

func (w *window) traced(t int64) bool { return w.trace && w.sliceOf(t)%2 == 1 }

const (
	classQuery = iota
	classWrite
	classes
)

// refSample is a response kept for the brute-force check after the
// window (the scan would cost more than the query it checks).
type refSample struct {
	demand []float64
	got    []cand
}

// caller is one closed-loop client: a scheduler waiting for its
// placement or a node agent waiting for its ack before the next
// publish. It owns every initial node whose index is congruent to its
// own, so "the last acknowledged write per node" is well defined.
type caller struct {
	clock
	sp    spec
	cmax  vector.Vec
	gen   *opStream
	owned []uint64

	joined []uint64             // joined by this caller, not yet left
	acked  map[uint64][]float64 // last acknowledged availability per written node
	left   map[uint64]bool
	grown  int // acknowledged joins minus leaves

	attempted, failed int64
	firstErr          error
	corrupt           bool // test hook: falsify the next checked response

	lat      [classes][]int64 // latencies, untraced and traced slices alike
	paced    []int64          // paced phase: latency from due time
	perSlice [nSlices]int64   // operations completed per slice
	queries  int64
	refs     []refSample
	keepRefs bool
	candBuf  []cand // reused per response; a kept reference sample is cloned

	tr      *tracer
	rp      *replayer
	opSeq   uint64
	sampleQ int
	sampleW int
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// target resolves an operation's node and reports whether it can be
// sent (a leave whose join failed earlier cannot).
func (c *caller) target(o op) (uint64, bool) {
	switch o.Kind {
	case opUpdate:
		return c.owned[o.Slot], true
	case opLeave:
		if o.Slot >= len(c.joined) {
			c.attempted++
			c.fail(fmt.Errorf("leave of slot %d: only %d joins were acknowledged", o.Slot, len(c.joined)))
			return 0, false
		}
		return c.joined[o.Slot], true
	}
	return 0, true
}

// ack books one completed operation's outcome — the failure, or the
// effect an acknowledged write has on the state the run must end in —
// and reports whether it succeeded.
func (c *caller) ack(o op, node uint64, err error) bool {
	c.attempted++
	if err != nil {
		c.fail(fmt.Errorf("%s: %w", opNames[o.Kind], err))
		return false
	}
	switch o.Kind {
	case opUpdate:
		c.acked[node] = o.Vec
	case opJoin:
		c.joined = append(c.joined, node)
		c.acked[node] = o.Vec
		c.grown++
	case opLeave:
		last := len(c.joined) - 1
		c.joined[o.Slot] = c.joined[last]
		c.joined = c.joined[:last]
		delete(c.acked, node)
		c.left[node] = true
		c.grown--
	}
	return true
}

// observe records a closed-loop operation's latency and the slice it
// completed in.
func (c *caller) observe(o op, t0, t1 int64, w *window) {
	if !w.record {
		return
	}
	class := classWrite
	if o.Kind == opQuery {
		class = classQuery
	}
	c.lat[class] = append(c.lat[class], t1-t0)
	if s := w.sliceOf(t1); s < nSlices {
		c.perSlice[s]++
	}
}

var opNames = [...]string{opQuery: "query", opUpdate: "update", opJoin: "join", opLeave: "leave"}

// checkQuery referees one query response.
func (c *caller) checkQuery(demand []float64, got []cand) {
	if c.corrupt && len(got) > 0 {
		got[0].surplus += 1
		c.corrupt = false
	}
	if err := checkInvariants(demand, queryK, c.cmax, got); err != nil {
		c.fail(fmt.Errorf("query %v: %w", demand, err))
		return
	}
	c.queries++
	if c.keepRefs && c.queries%sampleQueries == 0 && len(c.refs) < cap(c.refs) {
		c.refs = append(c.refs, refSample{demand, slices.Clone(got)})
	}
}

// driveEngine runs the closed loop against the in-process engine
// until the window ends.
func (c *caller) driveEngine(eng *serve.Engine, w *window) {
	for t := c.now(); t < w.end; {
		o := c.gen.next()
		node, ok := c.target(o)
		if !ok {
			continue
		}
		var resp serve.QueryResponse
		var err error
		t0 := c.now()
		switch o.Kind {
		case opQuery:
			resp, err = eng.Query(serve.QueryRequest{Demand: o.Vec, K: queryK, NoCache: !c.sp.cached})
		case opUpdate:
			err = eng.Update(serve.GlobalID(node), o.Vec, false)
		case opJoin:
			var id serve.GlobalID
			id, err = eng.Join(o.Vec)
			node = uint64(id)
		case opLeave:
			err = eng.Leave(serve.GlobalID(node))
		}
		t = c.now()
		if !c.ack(o, node, err) {
			continue
		}
		c.observe(o, t0, t, w)
		var got []cand
		if o.Kind == opQuery {
			got = candsOf(c.candBuf[:0], resp.Candidates)
			c.candBuf = got
			c.checkQuery(o.Vec, got)
		}
		if w.record && w.traced(t0) {
			c.traceEngineOp(o, node, t0, t, got)
		}
	}
}

// traceEngineOp records the driver span and, for the sampled share,
// replays the operation through the public layer calls under the same
// op id.
func (c *caller) traceEngineOp(o op, node uint64, t0, t1 int64, got []cand) {
	c.opSeq++
	opID := c.tr.owner | c.opSeq
	switch o.Kind {
	case opQuery:
		c.tr.add(0, opID, "engine.query", t0, t1)
		if c.sampleQ++; c.sampleQ%sampleQueries == 0 && !c.sp.cached {
			if err := c.rp.read(c, opID, o.Vec, got); err != nil {
				c.fail(err)
			}
		}
	case opUpdate:
		c.tr.add(0, opID, "engine.update", t0, t1)
		if c.sampleW++; c.sampleW%sampleWrites == 0 {
			if err := c.rp.write(c, opID, serve.GlobalID(node), o.Vec); err != nil {
				c.fail(err)
			}
		}
	case opJoin:
		c.tr.add(0, opID, "engine.join", t0, t1)
	case opLeave:
		c.tr.add(0, opID, "engine.leave", t0, t1)
	}
}

// enqueue appends o to the client's send buffer.
func (c *caller) enqueue(cl *wire.Client, q *wire.Query, o op, node uint64) {
	switch o.Kind {
	case opQuery:
		q.Demand = o.Vec
		cl.EnqueueQuery(q)
	case opUpdate:
		cl.EnqueueUpdate(node, o.Vec, false)
	case opJoin:
		cl.EnqueueJoin(-1, o.Vec)
	case opLeave:
		cl.EnqueueLeave(node)
	}
}

// finishWire books one wire response. from is the instant latency
// counts from: the enqueue in the closed phase, the due time in the
// paced one.
func (c *caller) finishWire(o op, node uint64, from, t1 int64, w *window, r *wire.Response, paced bool) {
	var err error
	if r.Errored {
		e := r.Err
		err = &e
	}
	if o.Kind == opJoin {
		node = r.Node
	}
	if !c.ack(o, node, err) {
		return
	}
	if paced {
		c.paced = append(c.paced, t1-from)
	} else {
		c.observe(o, from, t1, w)
	}
	if o.Kind == opQuery {
		got := c.candBuf[:0]
		for _, x := range r.Query.Candidates {
			got = append(got, cand{x.Node, x.Surplus, x.Avail})
		}
		c.candBuf = got
		c.checkQuery(o.Vec, got)
	}
	if !paced && w.record && w.traced(from) {
		c.opSeq++
		c.tr.add(0, c.tr.owner|c.opSeq, "wire.request", from, t1)
	}
}

// driveWire runs the closed phase over one pipelined connection: a
// window of wireDepth requests is enqueued and flushed, then its
// responses are read in order. A transport error ends the run.
func (c *caller) driveWire(cl *wire.Client, w *window) error {
	q := wire.Query{K: queryK, NoCache: !c.sp.cached}
	var ops [wireDepth]op
	var nodes [wireDepth]uint64
	for t := c.now(); t < w.end; {
		t0 := c.now()
		n := 0
		for n < wireDepth {
			o := c.gen.next()
			node, ok := c.target(o)
			if !ok {
				continue
			}
			c.enqueue(cl, &q, o, node)
			ops[n], nodes[n] = o, node
			n++
		}
		if err := cl.Flush(); err != nil {
			return fmt.Errorf("wire flush: %w", err)
		}
		for i := 0; i < n; i++ {
			r, err := cl.ReadResponse()
			t = c.now()
			if err != nil {
				return fmt.Errorf("wire read: %w", err)
			}
			c.finishWire(ops[i], nodes[i], t0, t, w, r, false)
		}
	}
	return nil
}

// pacer is the open-loop schedule: perTick requests fall due at every
// tick from start, whatever the system does with the earlier ones.
type pacer struct {
	start   int64
	tick    int64
	perTick int
}

func (p pacer) due(tick int) int64 { return p.start + int64(tick)*p.tick }

// late reports whether a request due at due and sent at sent ran
// behind schedule by more than one tick.
func (p pacer) late(due, sent int64) bool { return sent-due > p.tick }

// run walks the schedule until end: it sleeps to each tick's due time
// (never past one — a stalled generator catches up by sending the
// overdue ticks back to back, each still timed from its own due time)
// and calls send for it. It returns how many requests it sent and how
// many of them late.
func (p pacer) run(end int64, now func() int64, sleep func(ns int64), send func(due int64) error) (total, late int, err error) {
	for tick := 0; p.due(tick) < end; tick++ {
		due := p.due(tick)
		if d := due - now(); d > 0 {
			sleep(d)
		}
		if err := send(due); err != nil {
			return total, late, err
		}
		total += p.perTick
		if p.late(due, now()) {
			late += p.perTick
		}
	}
	return total, late, nil
}

// preciseSleep sleeps in the kernel: time.Sleep rounds a sub-tick wait
// on an idle processor up to a whole millisecond, which at 1 ms ticks
// would be measured as the system's latency. The goroutine blocks in a
// system call, so the runtime hands its processor to other work.
func preciseSleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends that tick early within the same tick
}

type pending struct {
	o    op
	node uint64
	due  int64
}

// drivePaced runs the open phase over one connection: this goroutine
// sends on schedule while a second reads the in-order responses (the
// one concurrent split the wire client allows).
func (c *caller) drivePaced(cl *wire.Client, w *window, p pacer) (total, late int, err error) {
	// Capacity bounds the in-flight backlog; a sender blocked on it is
	// behind schedule and its requests are counted late.
	fifo := make(chan pending, 1<<14)
	readErr := make(chan error, 1)
	go func() {
		var err error
		for pd := range fifo {
			if err != nil {
				continue // drain so the sender never blocks
			}
			var r *wire.Response
			if r, err = cl.ReadResponse(); err != nil {
				err = fmt.Errorf("wire read: %w", err)
				continue
			}
			c.finishWire(pd.o, pd.node, pd.due, c.now(), w, r, true)
		}
		readErr <- err
	}()
	q := wire.Query{K: queryK, NoCache: !c.sp.cached}
	total, late, err = p.run(w.end, c.now, preciseSleep, func(due int64) error {
		for i := 0; i < p.perTick; i++ {
			// The paced mix is queries and updates only: joins and
			// leaves would share c.joined with the reading goroutine.
			o := c.gen.next()
			node, _ := c.target(o)
			c.enqueue(cl, &q, o, node)
			fifo <- pending{o, node, due}
		}
		if err := cl.Flush(); err != nil {
			return fmt.Errorf("wire flush: %w", err)
		}
		return nil
	})
	close(fifo)
	if rerr := <-readErr; err == nil {
		err = rerr
	}
	return total, late, err
}
