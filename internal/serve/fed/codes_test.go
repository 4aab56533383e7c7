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
// return through the wire server and a router in front of it: the
// router must hand back the sentinel the member's code stands for.
// CodeBadRequest stands for ErrBadDemand, whichever of the two
// bad-input sentinels the member returned; an error with no sentinel
// comes back as the member's CodeRejected.
func TestRouterReturnsTheMembersSentinel(t *testing.T) {
	for _, tc := range []struct {
		name   string
		member error
		code   uint16
		want   error // nil: no sentinel
	}{
		{"closed", serve.ErrClosed, wire.CodeClosed, serve.ErrClosed},
		{"read_only", serve.ErrReadOnly, wire.CodeReadOnly, serve.ErrReadOnly},
		{"fenced", serve.ErrFenced, wire.CodeFenced, serve.ErrFenced},
		{"wal", serve.ErrWAL, wire.CodeWAL, serve.ErrWAL},
		{"bad_demand", serve.ErrBadDemand, wire.CodeBadRequest, serve.ErrBadDemand},
		{"not_durable", serve.ErrNotDurable, wire.CodeBadRequest, serve.ErrBadDemand},
		{"no_shard", serve.ErrNoShard, wire.CodeNoShard, serve.ErrNoShard},
		{"scatter_timeout", serve.ErrScatterTimeout, wire.CodeScatterTimeout, serve.ErrScatterTimeout},
		{"unmapped", errors.New("no such node"), wire.CodeRejected, nil},
	} {
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
			for _, s := range []error{serve.ErrClosed, serve.ErrReadOnly, serve.ErrFenced, serve.ErrWAL,
				serve.ErrBadDemand, serve.ErrNoShard, serve.ErrScatterTimeout} {
				if errors.Is(err, s) {
					t.Fatalf("router returned %v, which is %v", err, s)
				}
			}
			if !errors.As(err, &we) || we.Code != tc.code {
				t.Fatalf("router returned %v, want the member's code %d", err, tc.code)
			}
		})
	}
}
