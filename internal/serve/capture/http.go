package capture

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pidcan/internal/serve"
)

// NewHTTP is the capture control surface cmd/pidcan-serve mounts:
//
//	POST /capture/start {"path":"..."} -> {"ok":true,"path":"..."}
//	POST /capture/stop  -> {"path":..,"records":..,"dropped":..,"bytes":..}
//	GET  /capture/status -> {"capturing":..,"records":..,...}
//	GET  /capture/trace  -> last finished trace file (octet-stream)
//
// start attaches a fresh Recorder to the engine (409 if one is
// already attached; path defaults to a temp file); stop detaches and
// finalizes it; trace downloads the most recently finished trace —
// the remote half of `pidcan-replay -record`. engine is a getter
// because pidcan-serve swaps engines across follower re-bootstraps.
func NewHTTP(engine func() *serve.Engine) http.Handler {
	h := &httpCtl{engine: engine}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /capture/start", h.start)
	mux.HandleFunc("POST /capture/stop", h.stop)
	mux.HandleFunc("GET /capture/status", h.status)
	mux.HandleFunc("GET /capture/trace", h.trace)
	return mux
}

type httpCtl struct {
	engine func() *serve.Engine

	mu       sync.Mutex
	rec      *Recorder
	eng      *serve.Engine // the engine rec is attached to
	lastPath string
	started  time.Time
}

func (h *httpCtl) start(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path string `json:"path"`
	}
	if r.Body != nil {
		// An empty body means "default path"; a malformed one is an
		// error.
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		if err := dec.Decode(&req); err != nil && err.Error() != "EOF" {
			jsonErr(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
			return
		}
	}
	e := h.engine()
	if e == nil {
		serve.WriteError(w, "", serve.ErrNotReady)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rec != nil {
		jsonErr(w, http.StatusConflict, "capture already running: "+h.rec.Path())
		return
	}
	path := req.Path
	if path == "" {
		path = filepath.Join(os.TempDir(), fmt.Sprintf("pidcan-trace-%d.bin", time.Now().UnixNano()))
	}
	cfg := e.Config()
	rec, err := NewRecorder(path, Header{
		Shards:        cfg.Shards,
		NodesPerShard: cfg.NodesPerShard,
		Seed:          cfg.Seed,
		CMax:          cfg.CMax,
	}, RecorderConfig{})
	if err != nil {
		jsonErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	e.SetCapture(rec)
	h.rec, h.eng, h.started = rec, e, time.Now()
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "path": path})
}

func (h *httpCtl) stop(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rec == nil {
		jsonErr(w, http.StatusConflict, "no capture running")
		return
	}
	h.eng.SetCapture(nil)
	// Close before reading the counters: they are final only once the
	// writer has drained.
	err := h.rec.Close()
	st := h.rec.Stats()
	h.lastPath = h.rec.Path()
	h.rec, h.eng = nil, nil
	if err != nil {
		jsonErr(w, http.StatusInternalServerError, fmt.Sprintf("trace finalize: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"path":    h.lastPath,
		"records": st.Records,
		"dropped": st.Dropped,
		"bytes":   st.Bytes,
	})
}

func (h *httpCtl) status(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := map[string]any{"capturing": h.rec != nil, "last_path": h.lastPath}
	if h.rec != nil {
		st := h.rec.Stats()
		out["path"] = h.rec.Path()
		out["records"] = st.Records
		out["dropped"] = st.Dropped
		out["bytes"] = st.Bytes
		out["elapsed_ms"] = time.Since(h.started).Milliseconds()
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *httpCtl) trace(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	path := h.lastPath
	h.mu.Unlock()
	if path == "" {
		jsonErr(w, http.StatusNotFound, "no finished trace (run /capture/start then /capture/stop)")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

func jsonErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
