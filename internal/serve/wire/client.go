package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"

	"pidcan/internal/serve"
)

// Client speaks the wire protocol over one persistent TCP
// connection with one owner. It is not safe for concurrent use, with
// exactly one sanctioned split: because the protocol answers strictly
// in request order, ONE goroutine may Enqueue*/Flush while ONE other
// goroutine runs ReadResponse. Goroutines that share a connection go
// through Mux, which is that split behind a mutex. The
// sync wrappers (Query, Update, Join, Leave, Stats) are
// one-request-one-response and use both halves.
//
// All decode state is reused across responses: the hot query path
// allocates nothing after the first call.
type Client struct {
	c      net.Conn
	out    []byte
	nextID uint32

	// WriteEpoch, when non-zero, is stamped into every write frame
	// (update/join/leave) for server-side fencing: set it to the
	// epoch learned from responses to guarantee writes never land on
	// a primary from another timeline.
	WriteEpoch uint64

	// read half
	br      *reader
	hdr     [HeaderSize]byte
	payload []byte
	resp    Response
}

// Response is one decoded server response, reused across
// ReadResponse calls.
type Response struct {
	Op    byte
	ReqID uint32
	// Epoch is the server's replication epoch at response time.
	Epoch uint64
	// Errored reports a FlagError response; Err holds it. The Query,
	// Node and Stats fields are only meaningful when !Errored.
	Errored bool
	Err     Error
	// Query is the decoded result of an OpQuery response.
	Query QueryResult
	// Node is the id assigned by an OpJoin response.
	Node uint64
	// Stats is the raw JSON of an OpStats response (aliases an
	// internal buffer; valid until the next ReadResponse).
	Stats []byte
	// TakeAvail and TakeDegraded are an OpFedTake response: the
	// taken node's availability (reused across decodes) and whether
	// the take applied without reaching the log (ErrWAL).
	TakeAvail    []float64
	TakeDegraded bool
	// SumOK reports that an OpFedSummary response carried the member's
	// availability summary; Summary holds it (Summary.Max reuses an
	// internal buffer; valid until the next ReadResponse).
	SumOK   bool
	Summary Summary
	// Welcome answers an OpReplSubscribe; Records, Checkpoint and
	// Heartbeat are the frames a primary pushes after it.
	// Records.Recs is allocated afresh per frame, so a batch may be
	// kept; Checkpoint.Data is valid until the next ReadResponse.
	Welcome    ReplWelcome
	Records    ReplRecords
	Checkpoint ReplCheckpoint
	Heartbeat  ReplHeartbeat
}

// Dial connects a wire client.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection.
func NewClient(c net.Conn) *Client {
	return &Client{
		c:       c,
		out:     make([]byte, 0, 16<<10),
		br:      newReader(c, 64<<10),
		payload: make([]byte, 0, 4096),
	}
}

// Close closes the connection: responses still owed are dropped, and a
// Flush or ReadResponse blocked on it fails with the connection's
// error.
func (c *Client) Close() error { return c.c.Close() }

func (c *Client) reqID() uint32 {
	c.nextID++
	return c.nextID
}

// EnqueueQuery appends a query request to the send buffer without
// flushing; returns its request id.
func (c *Client) EnqueueQuery(q *Query) uint32 {
	id := c.reqID()
	c.out = AppendQuery(c.out, id, 0, q)
	return id
}

// EnqueueUpdate appends an update request (stamped with WriteEpoch).
func (c *Client) EnqueueUpdate(node uint64, avail []float64, announce bool) uint32 {
	id := c.reqID()
	c.out = AppendUpdate(c.out, id, c.WriteEpoch, node, avail, announce)
	return id
}

// EnqueueJoin appends a join request; shard < 0 leaves placement to
// the server.
func (c *Client) EnqueueJoin(shard int, avail []float64) uint32 {
	id := c.reqID()
	c.out = AppendJoin(c.out, id, c.WriteEpoch, shard, avail)
	return id
}

// EnqueueLeave appends a leave request.
func (c *Client) EnqueueLeave(node uint64) uint32 {
	id := c.reqID()
	c.out = AppendLeave(c.out, id, c.WriteEpoch, node)
	return id
}

// EnqueueStats appends a stats request.
func (c *Client) EnqueueStats() uint32 {
	id := c.reqID()
	c.out = AppendStatsRequest(c.out, id, 0)
	return id
}

// Flush writes every enqueued request in one syscall.
func (c *Client) Flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.c.Write(c.out)
	c.out = c.out[:0]
	return err
}

// ReadResponse reads and decodes the next response into the
// returned *Response (owned by the client, valid until the next
// call). Responses arrive in request order; an Errored response is
// a server-side rejection, not a read error.
func (c *Client) ReadResponse() (*Response, error) {
	if _, err := c.br.readFull(c.hdr[:]); err != nil {
		return nil, err
	}
	h, err := ParseHeader(c.hdr[:])
	if err != nil {
		return nil, err
	}
	if h.Flags&FlagResponse == 0 {
		return nil, fmt.Errorf("wire: server sent a request frame")
	}
	if cap(c.payload) < int(h.PLen) {
		c.payload = make([]byte, h.PLen)
	}
	c.payload = c.payload[:h.PLen]
	if _, err := c.br.readFull(c.payload); err != nil {
		return nil, err
	}
	if !VerifyFrame(c.hdr[:], c.payload) {
		return nil, errBadCRC
	}
	r := &c.resp
	r.Op, r.ReqID, r.Epoch = h.Op, h.ReqID, h.Epoch
	r.Errored = h.Flags&FlagError != 0
	r.Stats = nil
	if r.Errored {
		return r, DecodeError(c.payload, &r.Err)
	}
	switch h.Op {
	case OpQuery:
		return r, DecodeQueryResponse(c.payload, &r.Query)
	case OpJoin:
		r.Node, err = DecodeJoinResponse(c.payload)
		return r, err
	case OpStats:
		r.Stats = c.payload
	case OpFedTake:
		r.TakeAvail, r.TakeDegraded, err = DecodeFedTakeResponse(c.payload, r.TakeAvail)
		return r, err
	case OpFedSummary:
		r.SumOK, err = DecodeFedSummaryResponse(c.payload, &r.Summary)
		return r, err
	case OpReplSubscribe:
		return r, DecodeReplWelcome(c.payload, &r.Welcome)
	case OpReplRecords:
		return r, DecodeReplRecords(c.payload, &r.Records)
	case OpReplCheckpoint:
		return r, DecodeReplCheckpoint(c.payload, &r.Checkpoint)
	case OpReplHeartbeat:
		return r, DecodeReplHeartbeat(c.payload, &r.Heartbeat)
	}
	return r, nil
}

// Buffered reports how many bytes of the next responses have arrived
// but are not yet read: a frame has started arriving exactly when it
// is nonzero.
func (c *Client) Buffered() int { return c.br.buffered() }

// roundTrip completes one synchronous exchange for the request just
// enqueued: flush, read its response, and surface a server rejection
// as an *Error (allocating — error path only).
func (c *Client) roundTrip() (*Response, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	r, err := c.ReadResponse()
	if err != nil {
		return nil, err
	}
	if r.Errored {
		e := r.Err
		return nil, &e
	}
	return r, nil
}

// Query runs one synchronous query, decoding into res (reused by
// the caller across calls).
func (c *Client) Query(q *Query, res *QueryResult) error {
	c.EnqueueQuery(q)
	r, err := c.roundTrip()
	if err != nil {
		return err
	}
	*res, r.Query = r.Query, *res // hand the decoded buffers to the caller
	return nil
}

// write runs one synchronous write — enq appends its frame — and, on
// a serve.CodeReadOnly rejection naming a primary (a follower telling us
// who to write to), retries it once against that primary. Bounded:
// one hop. The original connection is kept until the primary
// actually answers — a dead or unreachable primary restores it and
// surfaces the original rejection, so the client stays usable for
// reads against the follower.
func (c *Client) write(enq func()) (*Response, error) {
	enq()
	r, err := c.roundTrip()
	var ro *Error
	if !errors.As(err, &ro) || ro.Code != serve.CodeReadOnly || ro.Primary == "" {
		return r, err
	}
	nc, derr := net.Dial("tcp", ro.Primary)
	if derr != nil {
		return nil, err
	}
	// Sync-wrapper context: the old connection is response-drained
	// (one request, one response), so it can be parked and restored.
	oldC, oldBr := c.c, c.br
	c.c, c.br = nc, newReader(nc, 64<<10)
	c.out = c.out[:0]
	enq()
	r, rerr := c.roundTrip()
	var we *Error
	if rerr != nil && !errors.As(rerr, &we) {
		// Transport failure before the primary answered: abandon the
		// redirect and keep the follower connection.
		nc.Close()
		c.c, c.br = oldC, oldBr
		c.out = c.out[:0]
		return nil, err
	}
	oldC.Close()
	return r, rerr
}

// Update publishes a node's availability synchronously. A follower's
// read-only rejection naming its primary is auto-followed once.
func (c *Client) Update(node uint64, avail []float64, announce bool) error {
	_, err := c.write(func() { c.EnqueueUpdate(node, avail, announce) })
	return err
}

// Join adds a node (shard < 0: server round-robin) and returns its
// global id, auto-following a read-only redirect once.
func (c *Client) Join(shard int, avail []float64) (uint64, error) {
	r, err := c.write(func() { c.EnqueueJoin(shard, avail) })
	if err != nil {
		return 0, err
	}
	return r.Node, nil
}

// Leave removes a node, auto-following a read-only redirect once.
func (c *Client) Leave(node uint64) error {
	_, err := c.write(func() { c.EnqueueLeave(node) })
	return err
}

// EnqueueFedTake appends a fed-take request (stamped with
// WriteEpoch).
func (c *Client) EnqueueFedTake(node uint64) uint32 {
	id := c.reqID()
	c.out = AppendFedTake(c.out, id, c.WriteEpoch, node)
	return id
}

// EnqueueFedSummary appends a summary-exchange request.
func (c *Client) EnqueueFedSummary() uint32 {
	id := c.reqID()
	c.out = AppendFedSummaryRequest(c.out, id, 0)
	return id
}

// Stats fetches the engine's Stats, decoded from the debug op's
// JSON payload into v (pass a *serve.Stats or any compatible
// struct), or returns the raw JSON when v is nil.
func (c *Client) Stats(v any) ([]byte, error) {
	c.EnqueueStats()
	r, err := c.roundTrip()
	if err != nil {
		return nil, err
	}
	if v != nil {
		if err := json.Unmarshal(r.Stats, v); err != nil {
			return nil, err
		}
	}
	return r.Stats, nil
}
