// Command pidcan-replay is the traffic record/replay driver:
//
//	pidcan-replay -list
//	pidcan-replay -scenario flash-crowd [-seed 42] [-out trace.bin]
//	pidcan-replay -trace trace.bin [-pace recorded] [-strict]
//	pidcan-replay -record -url http://localhost:8080 -duration 10s -out trace.bin
//
// -scenario compiles a named scenario from the CI corpus and replays
// it against a fresh engine, with a cache-off reference engine
// mirroring every write and the referee — the paper's answer computed
// over the target's own records — checking every snapshot-path
// response, asserting the scenario's invariant set (exit 1 on any
// violation). -trace replays a recorded trace file the same way
// (invariants: zero acked-write loss and digest equivalence against
// the reference and the referee; -strict additionally compares against the digests
// captured live, which is only sound for sequentially recorded
// traces). -record drives a live pidcan-serve's /capture endpoints:
// start a capture, wait, stop, download the trace — run the load
// (e.g. pidcan-loadgen) against the server in the meantime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"pidcan"
	"pidcan/internal/serve/capture"
	"pidcan/internal/serve/replay"
	"pidcan/internal/serve/replay/scenario"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the scenario corpus and exit")
		scen     = flag.String("scenario", "", "compile and replay a named scenario from the corpus")
		seed     = flag.Uint64("seed", 42, "scenario seed (same name+seed compiles the identical trace)")
		out      = flag.String("out", "", "write the compiled scenario / downloaded recording to this trace file")
		traceIn  = flag.String("trace", "", "replay this trace file against a fresh engine")
		pace     = flag.String("pace", "max", "replay pacing: max (back-to-back) or recorded (reproduce arrival deltas)")
		strict   = flag.Bool("strict", false, "also compare replayed digests against the digests captured live")
		record   = flag.Bool("record", false, "record a trace from a live server's /capture endpoints")
		url      = flag.String("url", "http://localhost:8080", "server base URL (-record)")
		duration = flag.Duration("duration", 10*time.Second, "capture window (-record)")
		dir      = flag.String("dir", "", "scratch dir for durable replay state (default: a temp dir)")
		jsonOut  = flag.Bool("json", false, "print the replay result as JSON")
	)
	flag.Parse()

	switch {
	case *list:
		for _, name := range scenario.Names() {
			sc, err := scenario.Build(name, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-18s %s\n", name, sc.Description)
		}
	case *scen != "":
		runScenario(*scen, *seed, *out, *dir, *jsonOut)
	case *traceIn != "":
		runTrace(*traceIn, *pace, *strict, *jsonOut)
	case *record:
		runRecord(*url, *duration, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runScenario(name string, seed uint64, out, dir string, jsonOut bool) {
	sc, err := scenario.Build(name, seed)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("scenario %s (seed %d): %d events — %s", name, seed, len(sc.Events), sc.Description)
	if out != "" {
		if err := scenario.WriteTraceFile(out, sc); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", out)
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "pidcan-replay-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	res, viol, err := scenario.Run(sc, dir, log.Printf)
	if err != nil {
		log.Fatal(err)
	}
	report(res, viol, jsonOut)
}

func runTrace(path, pace string, strict, jsonOut bool) {
	hdr, events, torn, err := capture.ReadTraceFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if torn > 0 {
		log.Printf("trace has a torn tail: %d trailing bytes dropped", torn)
	}
	log.Printf("trace %s: %d events, %d shards × %d nodes, seed %d", path, len(events), hdr.Shards, hdr.NodesPerShard, hdr.Seed)
	ref, err := pidcan.NewEngine(replay.EngineConfig(hdr))
	if err != nil {
		log.Fatal(err)
	}
	defer ref.Close()
	sut, err := pidcan.NewEngine(replay.EngineConfig(hdr))
	if err != nil {
		log.Fatal(err)
	}
	defer sut.Close()
	opts := replay.Options{Strict: strict, Reference: ref, Logf: log.Printf}
	switch pace {
	case "max":
	case "recorded":
		opts.Pace = replay.PaceRecorded
	default:
		log.Fatalf("unknown -pace %q (want max or recorded)", pace)
	}
	res, err := replay.Run(sut, hdr, events, opts)
	if err != nil {
		log.Fatal(err)
	}
	viol := res.Check(replay.Invariants{ZeroAckedWriteLoss: true, DigestEquivalence: true})
	report(res, viol, jsonOut)
}

func runRecord(url string, d time.Duration, out string) {
	if out == "" {
		log.Fatal("-record needs -out trace.bin")
	}
	post := func(p string) map[string]any {
		resp, err := http.Post(url+p, "application/json", nil)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("%s: %v", p, m)
		}
		return m
	}
	post("/capture/start")
	log.Printf("capturing on %s for %v — drive your load now", url, d)
	time.Sleep(d)
	st := post("/capture/stop")
	log.Printf("captured %v records (%v dropped, %v bytes)", st["records"], st["dropped"], st["bytes"])
	resp, err := http.Get(url + "/capture/trace")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("/capture/trace: %s", resp.Status)
	}
	f, err := os.Create(out)
	if err != nil {
		log.Fatal(err)
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d bytes); replay with: pidcan-replay -trace %s", out, n, out)
}

func report(res *replay.Result, viol []string, jsonOut bool) {
	if jsonOut {
		data, _ := json.MarshalIndent(res, "", "  ")
		fmt.Println(string(data))
	} else {
		fmt.Printf("replayed %d events (%d queries, %d mutations, %d faults) in %v\n",
			res.Events, res.Queries, res.Mutations, res.Faults, res.Wall)
		fmt.Printf("writes: %d acked, %d rejected-on-halted, %d errors; digests: %d vs-recorded, %d vs-reference mismatches\n",
			res.AckedWrites, res.RejectedOnHalted, res.WriteErrors, res.DigestMismatches, res.RefMismatches)
		fmt.Printf("final state: %d lost writes, %d extra nodes, imbalance %.2f; query p50 %v p99 %v\n",
			res.LostWrites, res.ExtraNodes, res.Imbalance, res.P50, res.P99)
	}
	if len(viol) > 0 {
		for _, v := range viol {
			fmt.Fprintf(os.Stderr, "INVARIANT VIOLATED: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("all invariants hold")
}
