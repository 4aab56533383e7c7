package wire

import (
	"encoding/binary"
	"math"

	"pidcan/internal/serve"
)

// Query is a wire query request. Demand is reused across decodes:
// DecodeQuery truncates and appends in place, so a long-lived Query
// on the hot path settles at one backing array and zero allocations.
type Query struct {
	Demand     []float64
	K          int
	Consistent bool
	NoCache    bool
}

// AppendQuery appends a query-request frame. A consistent query also
// carries qfScopeOne: DecodeQuery refuses a consistent frame without it.
func AppendQuery(dst []byte, reqID uint32, epoch uint64, q *Query) []byte {
	dst, off := beginFrame(dst, OpQuery, 0, reqID, epoch)
	var f byte
	if q.Consistent {
		f |= qfConsistent | qfScopeOne
	}
	if q.NoCache {
		f |= qfNoCache
	}
	dst = append(dst, f)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(q.K))
	dst = appendVec(dst, q.Demand)
	sealFrame(dst, off)
	return dst
}

// DecodeQuery decodes a query-request payload into q, reusing
// q.Demand's backing array. qfConsistent and qfScopeOne come together
// or not at all: a consistent query without qfScopeOne asks for the
// retired scatter over every shard and is refused, not answered from
// one, and a snapshot query with it is not a frame AppendQuery writes.
func DecodeQuery(payload []byte, q *Query) error {
	d := dec{buf: payload}
	f := d.u8()
	if f&^(qfConsistent|qfNoCache|qfScopeOne) != 0 || (f&qfConsistent == 0) != (f&qfScopeOne == 0) {
		return errBadFlags
	}
	q.Consistent = f&qfConsistent != 0
	q.NoCache = f&qfNoCache != 0
	q.K = int(d.u16())
	var err error
	q.Demand, err = decodeVec(&d, q.Demand)
	if err != nil {
		return err
	}
	if d.err != nil || len(d.buf) != 0 {
		return errTruncated
	}
	return nil
}

// Candidate is one qualified node of a decoded wire query response.
// Avail aliases the QueryResult's shared backing array.
type Candidate struct {
	Node    uint64
	Surplus float64
	Avail   []float64
}

// QueryResult is a decoded query response. Candidates and the
// availability backing array are reused across decodes.
type QueryResult struct {
	Cached        bool
	ShardsQueried int
	Hops          int
	Candidates    []Candidate

	avail []float64 // shared backing for the candidates' Avail
}

// AppendQueryResponse appends a query-response frame encoding the
// engine's response. Allocation-free: candidates are written
// straight from the engine's slice.
func AppendQueryResponse(dst []byte, reqID uint32, epoch uint64, resp *serve.QueryResponse) []byte {
	dst, off := beginFrame(dst, OpQuery, FlagResponse, reqID, epoch)
	var f byte
	if resp.Cached {
		f |= rfCached
	}
	dst = append(dst, f)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(resp.ShardsQueried))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Hops))
	// The retired per-leg maximum's slot: one leg's maximum is its hops.
	dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Hops))
	dim := 0
	if len(resp.Candidates) > 0 {
		dim = len(resp.Candidates[0].Avail)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(dim))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(resp.Candidates)))
	for i := range resp.Candidates {
		c := &resp.Candidates[i]
		dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Node))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Surplus))
		for _, v := range c.Avail {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	sealFrame(dst, off)
	return dst
}

// DecodeQueryResponse decodes a query-response payload into r,
// reusing r's candidate slice and availability backing array.
func DecodeQueryResponse(payload []byte, r *QueryResult) error {
	d := dec{buf: payload}
	f := d.u8()
	r.Cached = f&rfCached != 0
	r.ShardsQueried = int(d.u16())
	r.Hops = int(d.u32())
	legMax := int(d.u32()) // the retired per-leg maximum: one leg's is its hops
	dim := int(d.u16())
	count := int(d.u16())
	if d.err != nil {
		return d.err
	}
	// Bound before allocating: the frame cap bounds the payload, and
	// the claimed geometry must fit in what remains. An encoder writes
	// no dimension without a candidate, no unknown flag and no leg
	// maximum but Hops.
	if len(d.buf) != count*(16+8*dim) || (count == 0 && dim != 0) || f&^rfCached != 0 || legMax != r.Hops {
		return errTruncated
	}
	r.Candidates = r.Candidates[:0]
	r.avail = r.avail[:0]
	for i := 0; i < count; i++ {
		node := d.u64()
		surplus := math.Float64frombits(d.u64())
		start := len(r.avail)
		for k := 0; k < dim; k++ {
			r.avail = append(r.avail, math.Float64frombits(d.u64()))
		}
		r.Candidates = append(r.Candidates, Candidate{
			Node:    node,
			Surplus: surplus,
			Avail:   r.avail[start : start+dim],
		})
	}
	if d.err != nil || len(d.buf) != 0 {
		return errTruncated
	}
	// An append that grew the backing array left earlier candidates
	// aliasing the old one; re-slice them all against the final
	// array. (Settles after the first decode at steady dim/count.)
	for i := range r.Candidates {
		r.Candidates[i].Avail = r.avail[i*dim : (i+1)*dim]
	}
	return nil
}

// Update is a wire update request; Avail is reused across decodes.
type Update struct {
	Node     uint64
	Announce bool
	Avail    []float64
}

// AppendUpdate appends an update-request frame.
func AppendUpdate(dst []byte, reqID uint32, epoch uint64, node uint64, avail []float64, announce bool) []byte {
	dst, off := beginFrame(dst, OpUpdate, 0, reqID, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, node)
	var a byte
	if announce {
		a = 1
	}
	dst = append(dst, a)
	dst = appendVec(dst, avail)
	sealFrame(dst, off)
	return dst
}

// DecodeUpdate decodes an update-request payload into u.
func DecodeUpdate(payload []byte, u *Update) error {
	d := dec{buf: payload}
	u.Node = d.u64()
	a := d.u8()
	if a > 1 {
		return errBadFlags
	}
	u.Announce = a == 1
	var err error
	u.Avail, err = decodeVec(&d, u.Avail)
	if err != nil {
		return err
	}
	if d.err != nil || len(d.buf) != 0 {
		return errTruncated
	}
	return nil
}

// Join is a wire join request. Shard < 0 leaves placement to the
// server's round-robin; Avail nil joins without an initial
// availability.
type Join struct {
	Shard int
	Avail []float64
}

// AppendJoin appends a join-request frame.
func AppendJoin(dst []byte, reqID uint32, epoch uint64, shard int, avail []float64) []byte {
	dst, off := beginFrame(dst, OpJoin, 0, reqID, epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(shard)))
	dst = appendVec(dst, avail)
	sealFrame(dst, off)
	return dst
}

// DecodeJoin decodes a join-request payload into j. A zero-length
// vector decodes as nil Avail (resource dimensionality is always
// >= 1, so the encoding is unambiguous).
func DecodeJoin(payload []byte, j *Join) error {
	d := dec{buf: payload}
	j.Shard = int(int32(d.u32()))
	var err error
	j.Avail, err = decodeVec(&d, j.Avail)
	if err != nil {
		return err
	}
	if len(j.Avail) == 0 {
		j.Avail = nil
	}
	if d.err != nil || len(d.buf) != 0 {
		return errTruncated
	}
	return nil
}

// AppendJoinResponse appends a join response carrying the assigned
// global node id.
func AppendJoinResponse(dst []byte, reqID uint32, epoch uint64, node uint64) []byte {
	dst, off := beginFrame(dst, OpJoin, FlagResponse, reqID, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, node)
	sealFrame(dst, off)
	return dst
}

// DecodeJoinResponse decodes a join response's node id.
func DecodeJoinResponse(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, errTruncated
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// AppendLeave appends a leave-request frame.
func AppendLeave(dst []byte, reqID uint32, epoch uint64, node uint64) []byte {
	dst, off := beginFrame(dst, OpLeave, 0, reqID, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, node)
	sealFrame(dst, off)
	return dst
}

// DecodeLeave decodes a leave-request payload.
func DecodeLeave(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, errTruncated
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// AppendAck appends an empty-payload success response (update,
// leave).
func AppendAck(dst []byte, op byte, reqID uint32, epoch uint64) []byte {
	dst, off := beginFrame(dst, op, FlagResponse, reqID, epoch)
	sealFrame(dst, off)
	return dst
}

// AppendStatsRequest appends a stats request (empty payload).
func AppendStatsRequest(dst []byte, reqID uint32, epoch uint64) []byte {
	dst, off := beginFrame(dst, OpStats, 0, reqID, epoch)
	sealFrame(dst, off)
	return dst
}

// AppendStatsResponse appends a stats response; the payload is the
// engine's Stats as JSON (stats is the debug op — the one place the
// wire protocol carries JSON).
func AppendStatsResponse(dst []byte, reqID uint32, epoch uint64, statsJSON []byte) []byte {
	dst, off := beginFrame(dst, OpStats, FlagResponse, reqID, epoch)
	dst = append(dst, statsJSON...)
	sealFrame(dst, off)
	return dst
}

// AppendFedTake appends a fed-take request: remove the node,
// returning its availability so the caller can re-home it in another
// process. Node ids are in the server's namespace.
func AppendFedTake(dst []byte, reqID uint32, epoch uint64, node uint64) []byte {
	dst, off := beginFrame(dst, OpFedTake, 0, reqID, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, node)
	sealFrame(dst, off)
	return dst
}

// DecodeFedTake decodes a fed-take request payload.
func DecodeFedTake(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, errTruncated
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// AppendFedTakeResponse appends a fed-take response: a flag byte
// (tfDegraded: applied but not durable) plus the taken node's last
// published availability (zero-length for a node that never
// published one).
func AppendFedTakeResponse(dst []byte, reqID uint32, epoch uint64, avail []float64, degraded bool) []byte {
	dst, off := beginFrame(dst, OpFedTake, FlagResponse, reqID, epoch)
	var f byte
	if degraded {
		f = tfDegraded
	}
	dst = append(dst, f)
	dst = appendVec(dst, avail)
	sealFrame(dst, off)
	return dst
}

// DecodeFedTakeResponse decodes a fed-take response into prev's
// backing array, returning the availability (nil when the node never
// published one) and whether the take was durability-degraded.
func DecodeFedTakeResponse(payload []byte, prev []float64) ([]float64, bool, error) {
	d := dec{buf: payload}
	f := d.u8()
	avail, err := decodeVec(&d, prev)
	if err != nil {
		return nil, false, err
	}
	if d.err != nil || len(d.buf) != 0 || f&^tfDegraded != 0 {
		return nil, false, errTruncated
	}
	if len(avail) == 0 {
		avail = nil
	}
	return avail, f&tfDegraded != 0, nil
}

// Summary is a member's compact per-dimension availability summary,
// the answer to an OpFedSummary request: the maximum availability the
// member holds in each dimension (computed over every record, expiry
// ignored — a safe upper bound that only over-states what the member
// can offer), the record count behind it, and the member's write
// epoch when it was computed. A router prunes a scatter leg when the
// summary proves the member cannot hold any record dominating the
// query's demand.
type Summary struct {
	Seq uint64
	Pop uint32
	Max []float64
}

// AppendFedSummaryRequest appends a summary-exchange request (empty
// payload — routers hold no population to report).
func AppendFedSummaryRequest(dst []byte, reqID uint32, epoch uint64) []byte {
	dst, off := beginFrame(dst, OpFedSummary, 0, reqID, epoch)
	sealFrame(dst, off)
	return dst
}

// AppendFedSummaryResponse appends a summary-exchange response: one
// presence byte, then the answering member's availability summary
// when it has one (sum == nil: no engine mounted, or a service that
// holds no population).
func AppendFedSummaryResponse(dst []byte, reqID uint32, epoch uint64, sum *Summary) []byte {
	dst, off := beginFrame(dst, OpFedSummary, FlagResponse, reqID, epoch)
	if sum == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint64(dst, sum.Seq)
		dst = binary.LittleEndian.AppendUint32(dst, sum.Pop)
		dst = appendVec(dst, sum.Max)
	}
	sealFrame(dst, off)
	return dst
}

// DecodeFedSummaryResponse decodes a summary-exchange response into
// sum (reusing sum.Max's backing array) and reports whether the
// member sent a summary.
func DecodeFedSummaryResponse(payload []byte, sum *Summary) (bool, error) {
	d := dec{buf: payload}
	switch d.u8() {
	case 0:
		if d.err != nil || len(d.buf) != 0 {
			return false, errTruncated
		}
		return false, nil
	case 1:
	default:
		return false, errTruncated
	}
	sum.Seq = d.u64()
	sum.Pop = d.u32()
	var err error
	sum.Max, err = decodeVec(&d, sum.Max)
	if err != nil {
		return false, err
	}
	if d.err != nil || len(d.buf) != 0 {
		return false, errTruncated
	}
	return true, nil
}

// appendVec encodes a float vector as u16 dim + dim float64 bits.
func appendVec(dst []byte, v []float64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v)))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeVec decodes a vector into dst's backing array.
func decodeVec(d *dec, dst []float64) ([]float64, error) {
	dim := int(d.u16())
	if d.err != nil {
		return dst[:0], d.err
	}
	if len(d.buf) < 8*dim {
		d.err = errTruncated
		return dst[:0], d.err
	}
	dst = dst[:0]
	for k := 0; k < dim; k++ {
		dst = append(dst, math.Float64frombits(d.u64()))
	}
	return dst, nil
}
