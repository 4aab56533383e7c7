package wire

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// stalledServer accepts one connection, swallows n bytes of requests
// without answering any, and then either resets the connection (reset)
// or holds it open until the test ends. It returns the listener's
// address and a channel closed once the n bytes have arrived.
func stalledServer(t *testing.T, n int64, reset bool) (string, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	swallowed, stop := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.CopyN(io.Discard, c, n)
		close(swallowed)
		if reset {
			c.(*net.TCPConn).SetLinger(0) // RST, not FIN
		} else {
			<-stop
		}
		c.Close()
	}()
	return ln.Addr().String(), swallowed
}

// statsFrame is the size of one stats request frame.
var statsFrame = int64(len(AppendStatsRequest(nil, 1, 0)))

// statsCall is a stats request that hands its outcome to the channel.
type statsCall chan error

func (statsCall) Enqueue(c *Client) uint32       { return c.EnqueueStats() }
func (sc statsCall) Done(_ *Response, err error) { sc <- err }

// call starts one stats request on m and waits for its outcome.
func call(m *Mux) error {
	done := make(statsCall, 1)
	if err := m.Start(0, done); err != nil {
		return err
	}
	return <-done
}

func dialMux(t *testing.T, addr string) *Mux {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return NewMux(c)
}

// TestMuxPoisonWhileFIFOFull pins the deadlock fix: a member that
// stalls until the in-flight FIFO is full and then resets the
// connection must fail every call, not wedge them. The submitter that
// finds the FIFO full blocks for a slot while holding mu; before the
// fix the reader needed mu to poison the conn, so neither ever moved
// and every later caller queued up behind them.
func TestMuxPoisonWhileFIFOFull(t *testing.T) {
	// The reader holds one call while it waits for the response that
	// never comes and the FIFO holds muxPendingCap more. The next
	// submitter finds the FIFO full and flushes its own frame —
	// under mu, held from the enqueue until a slot frees — so that
	// frame reaching the member proves a submitter is at the blocked
	// push. The member swallows exactly that many requests, answers
	// none, and resets.
	addr, _ := stalledServer(t, int64(muxPendingCap+2)*statsFrame, true)
	m := dialMux(t, addr)

	const behind = 8 // callers queued on mu behind the blocked push
	total := muxPendingCap + 2 + behind
	errs := make(chan error, total+1)
	for i := 0; i < total; i++ {
		go func() { errs <- call(m) }()
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < total; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a call succeeded against a member that never answers")
			}
		case <-timeout:
			t.Fatalf("wedged: %d of %d calls returned after the member reset", i, total)
		}
	}
	go func() { errs <- call(m) }()
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("submit on a poisoned conn succeeded")
		}
	case <-timeout:
		t.Fatal("submit on a poisoned conn hangs instead of failing fast")
	}
	m.Close() // not deferred: on a wedged conn Close would hang the failure report too
}

// TestMuxFailsEveryCallInFlight: closing the Mux, or a transport
// error, completes every call in flight with that one error — ErrClosed
// for Close, the connection's first error for a reset — and every
// later Start returns the same error without running its Done.
func TestMuxFailsEveryCallInFlight(t *testing.T) {
	const inflight = 64
	for _, tc := range []struct {
		name  string
		reset bool
	}{{"close", false}, {"transport_error", true}} {
		t.Run(tc.name, func(t *testing.T) {
			addr, swallowed := stalledServer(t, inflight*statsFrame, tc.reset)
			m := dialMux(t, addr)
			errs := make(statsCall, inflight)
			for i := 0; i < inflight; i++ {
				if err := m.Start(0, errs); err != nil {
					t.Fatalf("start %d: %v", i, err)
				}
			}
			<-swallowed // every frame is on the wire, none answered
			if !tc.reset {
				m.Close()
			}
			var first error
			for i := 0; i < inflight; i++ {
				select {
				case err := <-errs:
					if err == nil {
						t.Fatalf("call %d succeeded against a server that never answers", i)
					}
					if first == nil {
						first = err
					}
					if err != first {
						t.Fatalf("call %d failed with %v, call 0 with %v: want one error", i, err, first)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d in-flight calls never completed", inflight-i, inflight)
				}
			}
			if tc.reset == errors.Is(first, ErrClosed) {
				t.Fatalf("in-flight calls failed with %v (reset %v)", first, tc.reset)
			}
			refused := make(statsCall, 1)
			err := m.Start(0, refused)
			if len(refused) != 0 {
				t.Error("Done ran for a call Start refused")
			}
			if err != first {
				t.Fatalf("start after the failure: %v, want %v", err, first)
			}
			if !m.Failed() {
				t.Fatal("a failed Mux reports healthy")
			}
			m.Close()
		})
	}
}

// TestMuxCloseUnblocksIdleReader: with a call in flight on a
// connection the server keeps open but never answers, the reader sits
// blocked in ReadResponse; Close must unblock it promptly, completing
// the call with ErrClosed.
func TestMuxCloseUnblocksIdleReader(t *testing.T) {
	addr, swallowed := stalledServer(t, statsFrame, false)
	m := dialMux(t, addr)
	done := make(chan error, 1)
	go func() { done <- call(m) }()
	<-swallowed
	time.Sleep(20 * time.Millisecond) // let the reader block on the socket
	start := time.Now()
	m.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked call got %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader still blocked 2s after Close")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("close with a blocked reader took %v", waited)
	}
}
