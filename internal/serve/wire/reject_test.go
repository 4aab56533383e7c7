package wire_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// failing is a service whose every update fails with err. Only the
// methods below are called: both edges read its epoch and primary and
// send it the update.
type failing struct {
	serve.Service
	err error
}

const failingPrimary = "10.0.0.9:7000"

func (f failing) Update(serve.GlobalID, vector.Vec, bool) error { return f.err }
func (f failing) Epoch() uint64                                 { return 1 }
func (f failing) PrimaryAddr() string                           { return failingPrimary }

// TestRejectionsAgree answers one update on both edges — the HTTP
// handler and the wire server — for every row of serve's rejection
// table, an error with no row and a front-end with no service mounted
// yet, and holds both answers to the row: its status and its code, a
// JSON body on HTTP, the retry hint exactly when the row carries it
// (and so exactly on the unavailable, 503, answers: the hint says
// "come back"), the primary exactly when the row names it, and a code
// that stands for a sentinel answered the same way.
func TestRejectionsAgree(t *testing.T) {
	type edges struct {
		name string
		err  error // the error the row answers
		row  serve.Rejection
		http http.Handler
		wire func() serve.Service
	}
	var cases []edges
	for _, row := range serve.Rejections() {
		svc := failing{err: fmt.Errorf("member says: %w", row.Err)}
		cases = append(cases, edges{row.Err.Error(), svc.err, row,
			serve.NewHandler(svc), func() serve.Service { return svc }})
	}
	unmapped := failing{err: errors.New("no such node")}
	cases = append(cases, edges{"unmapped", unmapped.err,
		serve.Rejection{Code: serve.CodeRejected, Status: http.StatusConflict},
		serve.NewHandler(unmapped), func() serve.Service { return unmapped }})
	// No service mounted: what cmd/pidcan-serve's HTTP front answers,
	// and a wire server whose getter returns nil.
	cases = append(cases, edges{"not_mounted", serve.ErrNotReady, serve.RejectionOf(serve.ErrNotReady),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			serve.WriteError(w, "", serve.ErrNotReady)
		}),
		func() serve.Service { return nil }})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			row := tc.row
			hint := row.Status == http.StatusServiceUnavailable

			// HTTP edge.
			rec := httptest.NewRecorder()
			tc.http.ServeHTTP(rec, httptest.NewRequest("POST", "/update",
				strings.NewReader(`{"node":1,"avail":[1,1],"announce":false}`)))
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("http: body %q is not JSON: %v", rec.Body, err)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("http: content type %q, want application/json", ct)
			}
			if rec.Code != row.Status {
				t.Errorf("http: status %d, want %d", rec.Code, row.Status)
			}
			if body["error"] != tc.err.Error() {
				t.Errorf("http: error %v, want %q", body["error"], tc.err)
			}
			ra, ms := rec.Header().Get("Retry-After"), body["retry_after_ms"]
			if (ra != "") != row.Retry || (ms != nil) != row.Retry || (ra != "") != hint {
				t.Errorf("http: Retry-After %q, retry_after_ms %v on status %d; row retry %v", ra, ms, rec.Code, row.Retry)
			}
			if p, ok := body["primary"]; ok != row.Primary || (ok && p != failingPrimary) {
				t.Errorf("http: primary %v (present %v), row names it: %v", p, ok, row.Primary)
			}

			// Wire edge.
			out := wire.NewServer(tc.wire, wire.ServerConfig{}).HandleFrame()(nil,
				wire.AppendUpdate(nil, 7, 0, 1, []float64{1, 1}, false))
			h, err := wire.ParseHeader(out)
			var we wire.Error
			if err != nil || h.Flags&wire.FlagError == 0 || wire.DecodeError(out[wire.HeaderSize:], &we) != nil {
				t.Fatalf("wire: answered flags %#x, %v; want an error frame", h.Flags, err)
			}
			if we.Code != row.Code {
				t.Errorf("wire: code %d, want %d", we.Code, row.Code)
			}
			if we.Msg != tc.err.Error() {
				t.Errorf("wire: message %q, want %q", we.Msg, tc.err)
			}
			if (we.RetryAfter > 0) != row.Retry || (we.RetryAfter > 0) != hint {
				t.Errorf("wire: retry after %v on code %d (HTTP %d); row retry %v", we.RetryAfter, we.Code, row.Status, row.Retry)
			}
			if row.Retry && (ms != float64(we.RetryAfter.Milliseconds()) || ra != strconv.Itoa(int(we.RetryAfter/time.Second))) {
				t.Errorf("edges disagree on the retry hint: http %q / %v ms, wire %v", ra, ms, we.RetryAfter)
			}
			if (we.Primary != "") != row.Primary || (row.Primary && we.Primary != failingPrimary) {
				t.Errorf("wire: primary %q, row names it: %v", we.Primary, row.Primary)
			}

			// The code stands for this row's sentinel, or for an earlier
			// row's that is answered the same way.
			back := serve.SentinelOf(we.Code)
			same := serve.RejectionOf(back)
			same.Err = row.Err
			if (back == nil) != (row.Err == nil) || same != row {
				t.Errorf("code %d stands for %v, answered %+v, not as %+v", we.Code, back, same, row)
			}
		})
	}
}
