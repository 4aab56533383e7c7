package scenario

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"pidcan/internal/serve"
	"pidcan/internal/serve/capture"
	"pidcan/internal/serve/repl"
	"pidcan/internal/serve/replay"
	"pidcan/internal/vector"

	pidcan "pidcan"
)

// Run replays a compiled scenario against a fresh engine (built from
// the scenario header, so it starts bit-identical to the recording
// engine) with an uncached reference engine mirroring every write and
// the referee (serve.Engine.Referee) checking every snapshot-path
// response, and returns the measured result plus the invariant
// violations (empty = scenario passed).
//
// A Replicated scenario runs the target as a durable primary with a
// live follower tailing it over the replication protocol for the
// whole replay; afterwards the harness waits for convergence and
// asserts the follower holds the exact node set the primary acked,
// then promotes the follower and requires it to serve. dir hosts the
// durable state (unused otherwise).
func Run(sc *Scenario, dir string, logf func(string, ...any)) (*replay.Result, []string, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ref, err := newEngine(replay.EngineConfig(sc.Header))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: reference engine: %w", err)
	}
	defer ref.Close()

	sutCfg := replay.EngineConfig(sc.Header)
	var follower *followerRig
	if sc.Replicated {
		sutCfg.DataDir = filepath.Join(dir, "primary")
	}
	sut, err := newEngine(sutCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("scenario: target engine: %w", err)
	}
	defer sut.Close()
	if sc.Replicated {
		follower, err = startFollower(sut, sutCfg, dir, logf)
		if err != nil {
			return nil, nil, err
		}
		defer follower.close()
	}

	res, err := replay.Run(sut, sc.Header, sc.Events, replay.Options{
		Pace:      sc.Pace,
		Strict:    true,
		Reference: ref,
		Logf:      logf,
	})
	if err != nil {
		return nil, nil, err
	}
	viol := res.Check(sc.Invariants)
	if follower != nil {
		viol = append(viol, follower.verify(sut, sc)...)
	}
	return res, viol, nil
}

// followerRig is the replication leg of a Replicated scenario: the
// primary's repl server plus an in-process follower tailing it.
type followerRig struct {
	srv  *repl.Server
	ln   net.Listener
	cl   *repl.Client
	logf func(string, ...any)
}

func startFollower(primary *serve.Engine, primaryCfg serve.Config, dir string, logf func(string, ...any)) (*followerRig, error) {
	srv, err := repl.NewServer(primary, repl.ServerConfig{Heartbeat: 20 * time.Millisecond})
	if err != nil {
		return nil, fmt.Errorf("scenario: repl server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("scenario: repl listen: %w", err)
	}
	go srv.Serve(ln)
	fcfg := primaryCfg
	fcfg.DataDir = filepath.Join(dir, "follower")
	fcfg.Follower = true
	fcfg.PrimaryAddr = ln.Addr().String()
	cl, err := repl.NewClient(repl.ClientConfig{
		Primary:      fcfg.PrimaryAddr,
		DataDir:      fcfg.DataDir,
		Shards:       fcfg.Shards,
		Mount:        func() (*serve.Engine, error) { return newEngine(fcfg) },
		RetryMin:     20 * time.Millisecond,
		RetryMax:     200 * time.Millisecond,
		DrainTimeout: time.Second,
		Logf:         logf,
	})
	if err != nil {
		srv.Close()
		ln.Close()
		return nil, fmt.Errorf("scenario: repl client: %w", err)
	}
	go cl.Run()
	return &followerRig{srv: srv, ln: ln, cl: cl, logf: logf}, nil
}

// verify waits for the follower to converge onto the primary's
// mirror positions, then checks node-set equality and that a
// promoted follower serves queries.
func (f *followerRig) verify(primary *serve.Engine, sc *Scenario) []string {
	var viol []string
	deadline := time.Now().Add(15 * time.Second)
	for {
		pp, perr := positionsOf(primary)
		fp, ferr := positionsOf(f.cl.Engine())
		if perr == nil && ferr == nil && fp != nil && reflect.DeepEqual(pp, fp) {
			break
		}
		if time.Now().After(deadline) {
			viol = append(viol, fmt.Sprintf("follower never caught up: primary %v follower %v (%v/%v)", pp, fp, perr, ferr))
			return viol
		}
		time.Sleep(5 * time.Millisecond)
	}
	fe := f.cl.Engine()
	pn, fn := primary.Nodes(), fe.Nodes()
	if !reflect.DeepEqual(pn, fn) {
		viol = append(viol, fmt.Sprintf("follower node set diverged: primary has %d nodes, follower %d", len(pn), len(fn)))
	}
	// The promote leg: a caught-up follower must take over serving.
	if _, err := fe.Promote(); err != nil {
		viol = append(viol, fmt.Sprintf("follower promote failed: %v", err))
		return viol
	}
	ev := queryEvent(sc)
	if ev == nil {
		return viol
	}
	resp, err := fe.Query(serve.QueryRequest{Demand: vector.Vec(ev.Demand), K: ev.K, NoCache: true})
	if err != nil {
		viol = append(viol, fmt.Sprintf("promoted follower query failed: %v", err))
	} else if len(resp.Candidates) == 0 && ev.NCand > 0 {
		viol = append(viol, "promoted follower returned no candidates for a query the primary answered")
	}
	return viol
}

func (f *followerRig) close() {
	f.cl.Close()
	if e := f.cl.Engine(); e != nil {
		e.Close()
	}
	f.srv.Close()
	f.ln.Close()
}

func positionsOf(e *serve.Engine) ([]serve.ReplPos, error) {
	if e == nil {
		return nil, nil
	}
	out := make([]serve.ReplPos, e.Shards())
	for i := range out {
		p, err := e.ReplSyncPosition(i)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// queryEvent returns some query event of the scenario (nil if none).
func queryEvent(sc *Scenario) *capturedQuery {
	for i := range sc.Events {
		if ev := &sc.Events[i]; ev.Kind == capture.EvQuery {
			return &capturedQuery{Demand: ev.Demand, K: ev.K, NCand: ev.NCand}
		}
	}
	return nil
}

type capturedQuery struct {
	Demand []float64
	K      int
	NCand  int
}

// newEngine builds a cluster-backed engine (the real backend, so
// scenario replays exercise the same stack production serves).
func newEngine(cfg serve.Config) (*serve.Engine, error) { return pidcan.NewEngine(cfg) }

// WriteTraceFile persists a compiled scenario as a standard trace
// file (the format capture.ReadTraceFile reads and pidcan-replay
// replays), with the synthetic event clock intact.
func WriteTraceFile(path string, sc *Scenario) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w, err := capture.NewWriter(f, sc.Header)
	if err != nil {
		f.Close()
		return err
	}
	for i := range sc.Events {
		if err := w.WriteEvent(&sc.Events[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
