package fed

import (
	"io"
	"net"
	"testing"
	"time"

	"pidcan/internal/serve/wire"
)

// TestMuxPoisonWhileFIFOFull pins the deadlock fix: a member that
// stalls until the in-flight FIFO is full and then resets the
// connection must fail every call, not wedge them. The submitter that
// finds the FIFO full blocks for a slot while holding mu; before the
// fix the reader needed mu to poison the conn, so neither ever moved
// and every later caller queued up behind them.
func TestMuxPoisonWhileFIFOFull(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The reader holds one call while it waits for the response that
	// never comes and the FIFO holds muxPendingCap more. The next
	// submitter finds the FIFO full and flushes its own frame —
	// under mu, held from the enqueue until a slot frees — so that
	// frame reaching the member proves a submitter is at the blocked
	// push. The member swallows exactly that many requests, answers
	// none, and resets.
	frame := len(wire.AppendStatsRequest(nil, 1, 0))
	stalled := int64(muxPendingCap+2) * int64(frame)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.CopyN(io.Discard, c, stalled)
		c.(*net.TCPConn).SetLinger(0) // RST, not FIN
		c.Close()
	}()

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m := newMuxConn(c, ln.Addr().String())

	call := func() error {
		done, err := m.start(0,
			func(c *wire.Client) uint32 { return c.EnqueueStats() },
			func(*wire.Response) error { return nil })
		if err == nil {
			err = <-done
		}
		return err
	}
	const behind = 8 // callers queued on mu behind the blocked push
	total := muxPendingCap + 2 + behind
	errs := make(chan error, total+1)
	for i := 0; i < total; i++ {
		go func() { errs <- call() }()
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
	go func() { errs <- call() }()
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
