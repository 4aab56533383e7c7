package wire_test

import (
	"errors"
	"net"
	"testing"

	"pidcan"
	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
)

// serveFollower builds a read-only replication follower whose write
// rejections name primaryAddr.
func serveFollower(t *testing.T, primaryAddr string) (*serve.Engine, error) {
	t.Helper()
	eng, err := pidcan.NewEngine(serve.Config{
		Shards: 1, NodesPerShard: 4, Seed: 5,
		DataDir: t.TempDir(), Follower: true, PrimaryAddr: primaryAddr,
	})
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { eng.Close() })
	return eng, nil
}

// deadListener accepts connections and resets them immediately — a
// crashed-but-still-bound primary.
func deadListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	return ln.Addr().String()
}

// TestClientFollowsReadOnlyRedirect: a sync write rejected by a
// follower with CodeReadOnly naming its primary is retried once
// against that primary — and succeeds there.
func TestClientFollowsReadOnlyRedirect(t *testing.T) {
	// The primary serves writes on a real loopback listener...
	primary := newTestEngine(t, serve.Config{Shards: 1, NodesPerShard: 4, Seed: 5})
	_, primaryAddr := startWire(t, primary)

	// ...and the follower names that address in its rejections.
	follower, err := serveFollower(t, primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	_, followerAddr := startWire(t, follower)

	c := dialWire(t, followerAddr)
	dim := primary.Config().CMax.Dim()
	avail := make([]float64, dim)
	for i := range avail {
		avail[i] = 1
	}
	node := uint64(primary.Nodes()[0])
	if err := c.Update(node, avail, false); err != nil {
		t.Fatalf("update through follower should follow the redirect: %v", err)
	}
	// The write landed on the primary, and the client now speaks to
	// it directly.
	var res wire.QueryResult
	if err := c.Query(&wire.Query{Demand: make([]float64, dim), K: 1}, &res); err != nil {
		t.Fatalf("query after redirect: %v", err)
	}
	if _, err := c.Join(-1, avail); err != nil {
		t.Fatalf("join after redirect: %v", err)
	}
}

// TestClientRedirectToDeadPrimaryKeepsFollower: when the primary a
// rejection names is unreachable, the original rejection surfaces
// and the client stays usable for reads against the follower.
func TestClientRedirectToDeadPrimaryKeepsFollower(t *testing.T) {
	// A listener that accepts and immediately resets stands in for a
	// crashed primary.
	deadAddr := deadListener(t)
	follower, err := serveFollower(t, deadAddr)
	if err != nil {
		t.Fatal(err)
	}
	_, followerAddr := startWire(t, follower)

	c := dialWire(t, followerAddr)
	dim := follower.Config().CMax.Dim()
	err = c.Update(0, make([]float64, dim), false)
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeReadOnly {
		t.Fatalf("update with dead primary: %v, want the original CodeReadOnly", err)
	}
	var res wire.QueryResult
	if err := c.Query(&wire.Query{Demand: make([]float64, dim), K: 1}, &res); err != nil {
		t.Fatalf("follower reads must survive a failed redirect: %v", err)
	}
}
