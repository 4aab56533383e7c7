package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"pidcan/internal/vector"
)

// NewHandler exposes a Service — an *Engine or a federation router —
// over HTTP with a JSON API:
//
//	POST /query  {"demand":[...],"k":3,"consistent":false,
//	              "no_cache":false}                        -> QueryResponse
//	POST /update {"node":N,"avail":[...],"announce":true} -> {"ok":true}
//	POST /join   {"avail":[...],"shard":S}                -> {"node":N}
//	POST /leave  {"node":N}                               -> {"ok":true}
//	POST /take   {"node":N}                               -> {"avail":[...]}
//	POST /rebalance -> RebalanceResult                 (engine only)
//	POST /checkpoint -> CheckpointResult               (engine only)
//	POST /promote -> {"role":"primary","epoch":E}      (engine only)
//	GET  /nodes  -> {"nodes":[N,...]}
//	GET  /stats  -> Stats
//	GET  /healthz -> {"ok":true}
//
// Node ids on the wire are GlobalIDs (shard in the high 32 bits); a
// migrated node keeps answering to every id it was ever known by.
// /join's optional "shard" targets a specific placement instead of
// the round-robin pick; /take removes a node, returning its
// availability for re-homing elsewhere. The engine-only routes are
// added when the service has them: /rebalance triggers one adaptive
// rebalance pass on demand; /checkpoint snapshots a durable (DataDir)
// engine's state and truncates its op-logs. On a replication follower,
// writes return 503 naming the primary's wire address, the one the
// follower streams from, in the body's "primary" (reads — /query,
// /nodes, /stats — serve normally) and POST /promote turns the
// follower into the primary under a fresh epoch. Request bodies are
// capped at 1 MiB. Errors are answered by WriteError, with the status
// of their row in the rejection table (RejectionOf) — the row the wire
// edge answers them from too.
func NewHandler(s Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", HandleJSON(s, func(req QueryRequest) (any, error) {
		// Not nil: an empty answer encodes as [], not null.
		return s.QueryAppend([]Candidate{}, req)
	}))
	mux.HandleFunc("POST /update", HandleJSON(s, func(req struct {
		Node     GlobalID   `json:"node"`
		Avail    vector.Vec `json:"avail"`
		Announce bool       `json:"announce"`
	}) (any, error) {
		return okBody, s.Update(req.Node, req.Avail, req.Announce)
	}))
	mux.HandleFunc("POST /join", HandleJSON(s, func(req struct {
		Avail vector.Vec `json:"avail"`
		Shard *int       `json:"shard"`
	}) (any, error) {
		var id GlobalID
		var err error
		if req.Shard != nil {
			id, err = s.JoinOn(*req.Shard, req.Avail)
		} else {
			id, err = s.Join(req.Avail)
		}
		return map[string]GlobalID{"node": id}, err
	}))
	mux.HandleFunc("POST /leave", HandleJSON(s, func(req nodeRequest) (any, error) {
		return okBody, s.Leave(req.Node)
	}))
	mux.HandleFunc("POST /take", HandleJSON(s, func(req nodeRequest) (any, error) {
		avail, err := s.Take(req.Node)
		if avail == nil {
			avail = vector.Vec{}
		}
		return map[string]vector.Vec{"avail": avail}, err
	}))
	mux.HandleFunc("GET /nodes", func(w http.ResponseWriter, r *http.Request) {
		nodes := s.Nodes()
		if nodes == nil {
			nodes = []GlobalID{}
		}
		writeJSON(w, http.StatusOK, map[string][]GlobalID{"nodes": nodes})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsPayload())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, okBody)
	})
	o, isOperated := s.(operated)
	if !isOperated {
		return mux
	}
	// Engine-only operator surface: these take no body.
	mux.HandleFunc("POST /rebalance", func(w http.ResponseWriter, r *http.Request) {
		res, err := o.Rebalance()
		reply(w, s, res, err)
	})
	mux.HandleFunc("POST /checkpoint", func(w http.ResponseWriter, r *http.Request) {
		res, err := o.Checkpoint()
		reply(w, s, res, err)
	})
	mux.HandleFunc("POST /promote", func(w http.ResponseWriter, r *http.Request) {
		epoch, err := o.Promote()
		reply(w, s, map[string]any{"role": o.Role(), "epoch": epoch}, err)
	})
	return mux
}

// operated is the operator surface of an engine that a generic Service
// lacks; NewHandler serves its routes when the service has it.
type operated interface {
	Rebalance() (RebalanceResult, error)
	Checkpoint() (CheckpointResult, error)
	Promote() (uint64, error)
	Role() string
}

var _ operated = (*Engine)(nil)

// nodeRequest is the body of the routes that name one node.
type nodeRequest struct {
	Node GlobalID `json:"node"`
}

// okBody is the body of a request that succeeded with nothing to return.
var okBody = map[string]bool{"ok": true}

// HandleJSON returns the handler of one JSON route: it decodes the
// request body into a Req (at most 1 MiB, unknown fields refused: 400)
// and answers do's result as JSON, or do's error by WriteError.
// Front-ends that add routes of their own to a Service's API build
// them with it.
func HandleJSON[Req any](s Service, do func(req Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decode(w, r, &req) {
			return
		}
		res, err := do(req)
		reply(w, s, res, err)
	}
}

// reply answers res, or err with its status.
func reply(w http.ResponseWriter, s Service, res any, err error) {
	if err != nil {
		WriteError(w, s.PrimaryAddr(), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// maxRequestBody caps decoded request bodies; anything larger is
// rejected with 400 before it can balloon the decoder's allocations.
const maxRequestBody = 1 << 20 // 1 MiB

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			err = fmt.Errorf("body exceeds %d bytes", mbe.Limit)
		}
		WriteError(w, "", fmt.Errorf("%w: %v", ErrBadRequest, err))
		return false
	}
	return true
}

// WriteError answers err from its rejection row (RejectionOf): the
// row's status and {"error":"..."}, plus a Retry-After header and
// "retry_after_ms" when the row carries the retry hint, and "primary"
// when it names the primary. Front-ends that answer errors of their
// own answer them with it.
func WriteError(w http.ResponseWriter, primary string, err error) {
	row := RejectionOf(err)
	body := map[string]any{"error": err.Error()}
	if row.Retry {
		w.Header().Set("Retry-After", strconv.Itoa(int(RetryAfter/time.Second)))
		body["retry_after_ms"] = RetryAfter.Milliseconds()
	}
	if row.Primary {
		body["primary"] = primary
	}
	writeJSON(w, row.Status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
