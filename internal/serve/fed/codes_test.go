package fed_test

import (
	"errors"
	"fmt"
	"net"
	"testing"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/serve/fed"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// refusing is a member whose every update fails with err.
type refusing struct {
	serve.Service
	err error
}

func (s refusing) Update(serve.GlobalID, vector.Vec, bool) error { return s.err }

// TestRouterReturnsTheMembersSentinel sends each error a member can
// return through the wire server and a router in front of it, one per
// row of serve's rejection table: the router must hand back the
// sentinel the member's code stands for. CodeBadRequest stands for
// ErrBadDemand, whichever of the bad-input sentinels the member
// returned; an error with no sentinel comes back as the member's
// CodeRejected.
func TestRouterReturnsTheMembersSentinel(t *testing.T) {
	type tc struct {
		name   string
		member error
		code   uint16
		want   error // nil: no sentinel
	}
	// names keeps each row's subtest name; a row without one runs
	// under its sentinel's text.
	names := map[error]string{
		serve.ErrClosed: "closed", serve.ErrReadOnly: "read_only", serve.ErrFenced: "fenced",
		serve.ErrWAL: "wal", serve.ErrBadDemand: "bad_demand", serve.ErrNotDurable: "not_durable",
		serve.ErrBadRequest: "bad_request", serve.ErrNoShard: "no_shard",
		serve.ErrScatterTimeout: "scatter_timeout", serve.ErrNotReady: "not_ready",
	}
	var cases []tc
	for _, row := range serve.Rejections() {
		name, ok := names[row.Err]
		if !ok {
			name = row.Err.Error()
		}
		cases = append(cases, tc{name, row.Err, row.Code, serve.SentinelOf(row.Code)})
	}
	cases = append(cases, tc{"unmapped", errors.New("no such node"), serve.CodeRejected, nil})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := pidcan.NewEngine(testCfg(3))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			member := refusing{eng, fmt.Errorf("member says: %w", tc.member)}
			srv := wire.NewServer(func() serve.Service { return member }, wire.ServerConfig{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })

			c, err := wire.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var we *wire.Error
			if err := c.Update(0, []float64{1, 1}, false); !errors.As(err, &we) || we.Code != tc.code {
				t.Fatalf("member answered %v, want code %d", err, tc.code)
			}

			r := newRouter(t, fed.Config{
				Members:        [][]string{{ln.Addr().String()}},
				CMax:           vector.Of(10, 10),
				SummaryRefresh: -1,
			})
			err = r.Update(fed.ID(0, eng.Nodes()[0]), vector.Of(1, 1), false)
			if tc.want != nil {
				if !errors.Is(err, tc.want) {
					t.Fatalf("router returned %v, want %v", err, tc.want)
				}
				return
			}
			for _, row := range serve.Rejections() {
				if errors.Is(err, row.Err) {
					t.Fatalf("router returned %v, which is %v", err, row.Err)
				}
			}
			if !errors.As(err, &we) || we.Code != tc.code {
				t.Fatalf("router returned %v, want the member's code %d", err, tc.code)
			}
		})
	}
}
