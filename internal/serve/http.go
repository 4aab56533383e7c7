package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"pidcan/internal/vector"
)

// NewHandler exposes an Engine over HTTP with a JSON API:
//
//	POST /query  {"demand":[...],"k":3,"consistent":false,
//	              "scope":"all|one","no_cache":false}
//	             -> QueryResponse
//	POST /update {"node":N,"avail":[...],"announce":true} -> {"ok":true}
//	POST /join   {"avail":[...],"shard":S}                -> {"node":N}
//	POST /leave  {"node":N}                               -> {"ok":true}
//	POST /take   {"node":N}                               -> {"avail":[...]}
//	POST /rebalance -> RebalanceResult
//	POST /checkpoint -> CheckpointResult
//	POST /promote -> {"role":"primary","epoch":E}
//	GET  /nodes  -> {"nodes":[N,...]}
//	GET  /stats  -> Stats
//	GET  /healthz -> {"ok":true}
//
// Node ids on the wire are GlobalIDs (shard in the high 32 bits); a
// migrated node keeps answering to every id it was ever known by.
// /join's optional "shard" targets a specific placement instead of
// the round-robin pick; /rebalance triggers one adaptive rebalance
// pass on demand; /checkpoint snapshots a durable (DataDir) engine's
// state and truncates its op-logs. On a replication follower, writes
// return 503 naming the primary's wire address, the one the follower
// streams from, in the body's "primary" (reads
// — /query, /nodes, /stats — serve normally) and POST /promote turns
// the follower into the primary under a fresh epoch. Request bodies
// are capped at 1
// MiB. Errors come
// back as {"error":"..."} with status 400 (bad input, including
// oversized bodies), 404 (no such shard), 409 (rejected operation),
// 500 (write applied but not durable: op-log failure), 503 (engine
// closed, or a write on a read-only follower or fenced primary) or
// 504 (scatter-gather deadline expired with no leg answered).
func NewHandler(e *Engine) http.Handler {
	mux := http.NewServeMux()
	addServiceRoutes(mux, e)
	// Engine-only operator surface: these drive machinery a generic
	// Service does not expose.
	mux.HandleFunc("POST /rebalance", func(w http.ResponseWriter, r *http.Request) {
		res, err := e.Rebalance()
		if err != nil {
			writeErr(w, e.PrimaryAddr(), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /checkpoint", func(w http.ResponseWriter, r *http.Request) {
		res, err := e.Checkpoint()
		if err != nil {
			writeErr(w, e.PrimaryAddr(), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /promote", func(w http.ResponseWriter, r *http.Request) {
		epoch, err := e.Promote()
		if err != nil {
			writeErr(w, e.PrimaryAddr(), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"role": e.Role(), "epoch": epoch})
	})
	return mux
}

// NewServiceHandler exposes any Service — an *Engine or a federation
// router — over the same JSON API as NewHandler, minus the
// engine-only operator routes (/rebalance, /checkpoint, /promote)
// and plus POST /take (remove a node, returning its availability for
// re-homing elsewhere).
func NewServiceHandler(s Service) http.Handler {
	mux := http.NewServeMux()
	addServiceRoutes(mux, s)
	return mux
}

// addServiceRoutes registers the Service-generic routes on mux.
func addServiceRoutes(mux *http.ServeMux, s Service) {
	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		var req QueryRequest
		if !decode(w, r, &req) {
			return
		}
		resp, err := s.Query(req)
		if err != nil {
			writeErr(w, s.PrimaryAddr(), err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /update", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node     GlobalID   `json:"node"`
			Avail    vector.Vec `json:"avail"`
			Announce bool       `json:"announce"`
		}
		if !decode(w, r, &req) {
			return
		}
		if err := s.Update(req.Node, req.Avail, req.Announce); err != nil {
			writeErr(w, s.PrimaryAddr(), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Avail vector.Vec `json:"avail"`
			Shard *int       `json:"shard"`
		}
		if !decode(w, r, &req) {
			return
		}
		var id GlobalID
		var err error
		if req.Shard != nil {
			id, err = s.JoinOn(*req.Shard, req.Avail)
		} else {
			id, err = s.Join(req.Avail)
		}
		if err != nil {
			writeErr(w, s.PrimaryAddr(), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]GlobalID{"node": id})
	})
	mux.HandleFunc("POST /leave", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node GlobalID `json:"node"`
		}
		if !decode(w, r, &req) {
			return
		}
		if err := s.Leave(req.Node); err != nil {
			writeErr(w, s.PrimaryAddr(), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /take", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Node GlobalID `json:"node"`
		}
		if !decode(w, r, &req) {
			return
		}
		avail, err := s.Take(req.Node)
		if err != nil {
			writeErr(w, s.PrimaryAddr(), err)
			return
		}
		if avail == nil {
			avail = vector.Vec{}
		}
		writeJSON(w, http.StatusOK, map[string]vector.Vec{"avail": avail})
	})
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
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
}

// maxRequestBody caps decoded request bodies; anything larger is
// rejected with 400 before it can balloon the decoder's allocations.
const maxRequestBody = 1 << 20 // 1 MiB

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		msg := "bad request: " + err.Error()
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			msg = fmt.Sprintf("bad request: body exceeds %d bytes", mbe.Limit)
		}
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": msg})
		return false
	}
	return true
}

// retryAfterSeconds is the Retry-After hint on 503 rejections from a
// read-only follower or fenced primary: long enough for a fail-over
// promotion to complete, short enough that clients re-resolve the
// primary promptly.
const retryAfterSeconds = 1

func writeErr(w http.ResponseWriter, primary string, err error) {
	status := http.StatusConflict
	switch {
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrReadOnly), errors.Is(err, ErrFenced):
		// 503 + a structured redirect: Retry-After header plus the
		// primary's address in the body, the client's cue to re-point
		// writes (a follower serves only reads).
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":          err.Error(),
			"primary":        primary,
			"retry_after_ms": retryAfterSeconds * 1000,
		})
		return
	case errors.Is(err, ErrWAL):
		// Applied in memory, not durable — a server-side storage
		// fault, not a client error.
		status = http.StatusInternalServerError
	case errors.Is(err, ErrBadDemand), errors.Is(err, ErrBadScope), errors.Is(err, ErrNotDurable):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNoShard):
		status = http.StatusNotFound
	case errors.Is(err, ErrScatterTimeout):
		status = http.StatusGatewayTimeout
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
