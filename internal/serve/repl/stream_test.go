package repl

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pidcan/internal/overlay"
	"pidcan/internal/serve"
	"pidcan/internal/serve/wire"
	"pidcan/internal/vector"
)

// serveWire serves svc's wire protocol on a loopback listener and
// returns its address.
func serveWire(t *testing.T, svc func() serve.Service) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(svc, wire.ServerConfig{})
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func dial(t *testing.T, addr string) *wire.Client {
	t.Helper()
	wc, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wc.Close() })
	return wc
}

// TestReplFollowerRedirectsWritesToPrimary: a follower mounted the way
// pidcan-serve mounts one — its PrimaryAddr is the primary's wire
// listener, the address it streams from — answers a wire write with
// CodeReadOnly naming that address, and the client's one-hop redirect
// lands the write on the primary.
func TestReplFollowerRedirectsWritesToPrimary(t *testing.T) {
	cfg := testConfig(2)
	p, _, addr := newPrimary(t, cfg, t.TempDir())
	cl := newFollowerClient(t, cfg, t.TempDir(), addr)
	runFollower(t, cl)
	follower := serveWire(t, func() serve.Service {
		if e := cl.Engine(); e != nil {
			return e
		}
		return nil
	})

	id := p.Nodes()[0]
	if err := dial(t, follower).Update(uint64(id), []float64{7, 3}, false); err != nil {
		t.Fatalf("write sent to the follower: %v", err)
	}
	resp, err := p.Query(serve.QueryRequest{Demand: vector.Of(6.5, 2.5), K: 16, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	applied := false
	for _, c := range resp.Candidates {
		applied = applied || (c.Node == id && c.Avail[0] == 7 && c.Avail[1] == 3)
	}
	if !applied {
		t.Fatalf("the redirected write is not on the primary: %+v", resp.Candidates)
	}
	waitCaughtUp(t, p, cl)
	assertSameState(t, stateOf(t, p), stateOf(t, cl.Engine()), "after the redirected write")
}

// TestReplOneListenerServesClientsAndStream: the primary's one wire
// listener serves a client's pipelined queries and writes while a
// follower streams from it, and the follower's mirror ends
// byte-identical to the primary's.
func TestReplOneListenerServesClientsAndStream(t *testing.T) {
	cfg := testConfig(2)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	cl := newFollowerClient(t, cfg, fdir, addr)
	runFollower(t, cl)

	wc := dial(t, addr)
	nodes := p.Nodes()
	q := wire.Query{Demand: []float64{1, 1}, K: 4, NoCache: true}
	for round := 0; round < 20; round++ {
		first := uint32(0)
		for i := 0; i < 16; i++ {
			var id uint32
			if i%2 == 0 {
				id = wc.EnqueueUpdate(uint64(nodes[(round*8+i/2)%len(nodes)]), []float64{float64(i % 10), float64(round % 10)}, i%4 == 0)
			} else {
				id = wc.EnqueueQuery(&q)
			}
			if i == 0 {
				first = id
			}
		}
		if err := wc.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			r, err := wc.ReadResponse()
			if err != nil {
				t.Fatal(err)
			}
			if r.ReqID != first+uint32(i) || r.Errored {
				t.Fatalf("round %d response %d: request %d, error %v", round, i, r.ReqID, r.Err)
			}
		}
	}
	if st := cl.Engine().Stats(); !st.ReplConnected || p.Stats().ReplFollowers != 1 {
		t.Fatalf("the follower is not streaming from the listener the client used (connected %v)", st.ReplConnected)
	}
	waitCaughtUp(t, p, cl)
	assertSameState(t, stateOf(t, p), stateOf(t, cl.Engine()), "one listener")
	assertMirrorIdentical(t, pdir, fdir, cfg.Shards)
}

// stallBackend is a fakeBackend whose SetAvailability waits while a
// stall is set and then takes a millisecond, so a follower's apply can
// be held and a backlog drained at a pace a sampler can watch.
type stallBackend struct {
	*fakeBackend
	stall *atomic.Pointer[chan struct{}]
}

func (b stallBackend) SetAvailability(id overlay.NodeID, v vector.Vec) error {
	if ch := b.stall.Load(); ch != nil {
		<-*ch
	}
	time.Sleep(time.Millisecond)
	return b.fakeBackend.SetAvailability(id, v)
}

// TestReplLagMeasuredAsTime: while a follower's apply is held, the
// heartbeats a primary sends every 20 ms wait behind the held frame in
// socket buffers, where a record count read off them cannot see the
// backlog. repl_lag_ms, the age of a heartbeat when the follower
// reaches it, reports the hold.
func TestReplLagMeasuredAsTime(t *testing.T) {
	cfg := testConfig(1)
	p, _, addr := newPrimary(t, cfg, t.TempDir())
	var stall atomic.Pointer[chan struct{}]
	cl := newFollowerClientWith(t, cfg, t.TempDir(), addr, func(i int, rc serve.Config) (serve.Backend, error) {
		return stallBackend{newFake(rc.NodesPerShard, rc.CMax.Dim()), &stall}, nil
	}, nil)
	runFollower(t, cl)
	waitCaughtUp(t, p, cl)

	var maxMS, maxRecords atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if e := cl.Engine(); e != nil {
				st := e.Stats()
				maxMS.Store(max(maxMS.Load(), st.ReplLagMS))
				maxRecords.Store(max(maxRecords.Load(), st.ReplLagRecords))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	hold := make(chan struct{})
	stall.Store(&hold)
	nodes := p.Nodes()
	for start, i := time.Now(), 0; time.Since(start) < 350*time.Millisecond; i++ {
		if err := p.Update(nodes[i%len(nodes)], vector.Of(float64(i%10), 1), false); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	stall.Store(nil)
	close(hold)
	waitCaughtUp(t, p, cl)
	close(stop)
	<-sampled

	t.Logf("max repl_lag_ms %d, max repl_lag_records %d", maxMS.Load(), maxRecords.Load())
	if got := maxMS.Load(); got < 250 {
		t.Fatalf("max repl_lag_ms %d across a 350 ms hold, want >= 250", got)
	}
}

// corrupter is a proxy between a follower and its primary. While it
// sweeps an op it flips byte k of the k-th primary-to-follower frame of
// that op, each on a new connection: frames behind a flip on the same
// connection pass untouched, so a flip the follower does not drop its
// connection over stalls the sweep.
type corrupter struct {
	ln net.Listener

	mu    sync.Mutex
	op    byte  // the op swept, 0 when idle
	flips int   // bytes flipped so far
	last  int64 // the connection of the last flip
	done  chan int
}

func newCorrupter(t *testing.T, primary string) *corrupter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &corrupter{ln: ln}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for conn := int64(0); ; conn++ {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", primary)
			if err != nil {
				down.Close()
				continue
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				io.Copy(up, down)
				up.Close()
			}()
			go func(conn int64) {
				defer wg.Done()
				c.pump(conn, down, up)
				down.Close()
				up.Close()
			}(conn)
		}
	}()
	return c
}

// sweep starts flipping every byte of op's frames in turn; the
// returned channel receives the frame length once each byte has been
// flipped.
func (c *corrupter) sweep(op byte) chan int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.op, c.flips, c.last, c.done = op, 0, -1, make(chan int, 1)
	return c.done
}

// pump forwards the primary's frames to the follower whole, flipping
// the next byte of the swept op's.
func (c *corrupter) pump(conn int64, down, up net.Conn) {
	r := bufio.NewReader(up)
	for {
		frame := make([]byte, wire.HeaderSize)
		if _, err := io.ReadFull(r, frame); err != nil {
			return
		}
		frame = append(frame, make([]byte, binary.LittleEndian.Uint32(frame[16:]))...)
		if _, err := io.ReadFull(r, frame[wire.HeaderSize:]); err != nil {
			return
		}
		c.mu.Lock()
		if c.op != 0 && frame[2] == c.op && conn != c.last {
			frame[c.flips] ^= 0x5A
			if c.flips, c.last = c.flips+1, conn; c.flips == len(frame) {
				c.op = 0
				c.done <- len(frame)
			}
		}
		c.mu.Unlock()
		if _, err := down.Write(frame); err != nil {
			return
		}
	}
}

// TestReplCorruptEveryStreamByte is the follower-side twin of
// wire.TestWireCorruptEveryByte: a proxy flips each byte in turn of a
// record frame, a heartbeat and a checkpoint chunk on their way to the
// follower. Every flip must cost the follower its connection — the
// filter or the CRC refuses the frame before anything decodes it — or
// the sweep, which flips only on a new connection, stalls. The
// follower's reconnect is what brings the next frame of the op (the
// spliced record, the next heartbeat, the checkpoint of a new
// bootstrap), and in the end it must hold a state and a DataDir
// byte-identical to the primary's: a damaged frame applied, or the
// frame it replaced lost, would show in both.
func TestReplCorruptEveryStreamByte(t *testing.T) {
	cfg := testConfig(1)
	pdir, fdir := t.TempDir(), t.TempDir()
	p, _, addr := newPrimary(t, cfg, pdir)
	proxy := newCorrupter(t, addr)
	cl := newFollowerClientWith(t, cfg, fdir, proxy.ln.Addr().String(), fakeFactory, func(c *ClientConfig) {
		c.RetryMin, c.RetryMax = time.Millisecond, 5*time.Millisecond
		// A flip that grows a frame's length has the follower wait for
		// bytes that never come; this bounds the wait.
		c.HeartbeatTimeout = 300 * time.Millisecond
		c.Logf = func(string, ...any) {}
	})
	runFollower(t, cl)
	waitCaughtUp(t, p, cl)

	for _, kind := range []struct {
		name  string
		op    byte
		start func() // sends the first frame of op
	}{
		{"record frame", wire.OpReplRecords, func() {
			if err := p.Update(p.Nodes()[0], vector.Of(3, 2), false); err != nil {
				t.Fatal(err)
			}
		}},
		{"heartbeat", wire.OpReplHeartbeat, func() {}},
		{"checkpoint chunk", wire.OpReplCheckpoint, func() {
			if _, err := p.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		done := proxy.sweep(kind.op)
		kind.start()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			proxy.mu.Lock()
			t.Fatalf("%s: the follower kept its connection after byte %d was flipped", kind.name, proxy.flips-1)
		}
		waitCaughtUp(t, p, cl)
		assertSameState(t, stateOf(t, p), stateOf(t, cl.Engine()), kind.name)
		assertMirrorIdentical(t, pdir, fdir, cfg.Shards)
	}
}
