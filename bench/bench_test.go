package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {1, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p != 50 && c.n-1-rank(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-1-rank(c.n, p))
		}
	}
	// Two callers, 1..3000 µs between them in completion order: each
	// third of the window pools 1000 samples, enough for p99; the middle
	// third (1001..2000) sets both reported values.
	var a, b []int64
	for i := int64(1); i <= 3000; i += 2 {
		a, b = append(a, i), append(b, i+1)
	}
	got := summarize([][]int64{a, b}, 1)
	if got.N != 3000 || got.TailP != 99 || got.P50 != 1500 || got.Tail != 1990 {
		t.Errorf("summarize = %+v, want n=3000 p50=1500 p99=1990", got)
	}
	if got := summarize([][]int64{a[:300], b[:300]}, 1); got.TailP != 95 {
		t.Errorf("200 samples per chunk reported p%g, want p95", got.TailP)
	}
}

func streamBytes(seed uint64, caller, n int) []byte {
	cmax := []float64{25.6, 80, 10, 240, 4096}
	s := newOpStream(seed, caller, mix{update: 0.76, join: 0.02, leave: 0.02}, cmax, 100, nil)
	var out []byte
	for range n {
		out = appendOp(out, s.next())
	}
	return out
}

func TestOpStreamIsAFunctionOfSeedAndCaller(t *testing.T) {
	a, b := streamBytes(7, 0, 5000), streamBytes(7, 0, 5000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and caller generated different op streams")
	}
	if bytes.Equal(a, streamBytes(8, 0, 5000)) {
		t.Error("a different seed generated the same op stream")
	}
	if bytes.Equal(a, streamBytes(7, 1, 5000)) {
		t.Error("a different caller generated the same op stream")
	}
}

func TestOpStreamNeverLeavesWhatItHasNotJoined(t *testing.T) {
	s := newOpStream(3, 0, mix{join: 0.1, leave: 0.4}, []float64{1, 1}, 0, nil)
	joined := 0
	for range 10_000 {
		switch o := s.next(); o.Kind {
		case opJoin:
			joined++
		case opLeave:
			if o.Slot >= joined {
				t.Fatalf("leave of slot %d with %d joined", o.Slot, joined)
			}
			joined--
		case opUpdate:
			t.Fatal("update generated for a caller that owns no node")
		}
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},    // overlaps a: 20..30 counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // reaches past the parent: 90..100 counts
		{ID: 5, Parent: 3, Name: "leaf", Start: 25, End: 45}, // a grandchild covers b, not the parent
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := attribute([]Span{
		{Op: 9, Name: "engine.query", Start: 0, End: 100},
		{Op: 9, Name: "index.search", Start: 200, End: 230},
		{Op: 9, Name: "index.search", Start: 230, End: 250},
		{Op: 8, Name: "engine.query", Start: 0, End: 70}, // never replayed: not attributed
	}, "engine.query", "index.search"); !slices.Equal(got, []int64{50}) {
		t.Errorf("attribute = %v, want [50]", got)
	}
}

func TestPacerKeepsDueTimesAndCountsLateness(t *testing.T) {
	const ms = int64(1e6)
	p := pacer{start: 0, tick: ms, perTick: 2}
	now := int64(0)
	var dues []int64
	total, late, err := p.run(10*ms,
		func() int64 { return now },
		func(ns int64) { now += ns },
		func(due int64) error {
			dues = append(dues, due)
			if due == 3*ms {
				now += 5*ms + ms/2 // the generator stalls while sending tick 3
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, due := range dues {
		if due != int64(i)*ms {
			t.Fatalf("tick %d was sent as due at %d: a stall must not shift the schedule", i, due)
		}
	}
	// Ticks 3..7 run more than one tick behind (5.5, 4.5, 3.5, 2.5,
	// 1.5 ms); tick 8 is 0.5 ms behind, tick 9 on time again.
	if len(dues) != 10 || total != 20 || late != 10 {
		t.Errorf("ticks=%d total=%d late=%d, want 10, 20, 10", len(dues), total, late)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// benchmarkJSON is ../BENCHMARK.json as the tests need it.
func benchmarkJSON(t *testing.T) (path string, names, whys []string, e2e, layers []MetricDef) {
	t.Helper()
	path = filepath.Join("..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []MetricDef `json:"end_to_end"`
		PerLayer  []MetricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	return path, names, whys, f.EndToEnd, f.PerLayer
}

func TestBenchmarkJSONDeclaresWhatTheCodeReports(t *testing.T) {
	_, names, whys, e2e, layers := benchmarkJSON(t)
	var wantNames, wantWhys []string
	for _, sp := range workloads {
		wantNames, wantWhys = append(wantNames, sp.name), append(wantWhys, sp.why)
	}
	if !slices.Equal(names, wantNames) || !slices.Equal(whys, wantWhys) {
		t.Errorf("BENCHMARK.json workloads %v %q, code has %v %q", names, whys, wantNames, wantWhys)
	}
	if !slices.Equal(e2e, EndToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, EndToEnd)
	}
	if !slices.Equal(layers, PerLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's table:\n%v\n%v", layers, PerLayer)
	}
}

func smokeOptions(t *testing.T, workload string, trace bool) Options {
	return Options{
		Workload: workload, Seed: 11, Seconds: 0.4, Trace: trace, Smoke: true,
		Clients: DefaultClients(), OutDir: t.TempDir(), Commit: "test",
	}
}

func TestSmokeEveryWorkloadBothModes(t *testing.T) {
	for _, sp := range workloads {
		for _, trace := range []bool{false, true} {
			o := smokeOptions(t, sp.name, trace)
			res, err := Run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s",
					sp.name, trace, res.Correct, res.Attempted, res.Failed, res.FirstError)
			}
			for _, d := range EndToEnd {
				if res.Values[d.Name] <= 0 {
					t.Errorf("%s trace=%v: %s = %v, want > 0", sp.name, trace, d.Name, res.Values[d.Name])
				}
			}
			left, err := os.ReadDir(o.OutDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				if e.IsDir() {
					t.Errorf("%s: run left directory %s behind", sp.name, e.Name())
				}
			}
			if !trace {
				continue
			}
			if _, ok := res.Values["loadgen.trace_overhead_share"]; !ok {
				t.Errorf("%s: traced run did not report its overhead", sp.name)
			}
			driver := "engine.query"
			if sp.wire {
				driver = "wire.request"
			}
			if res.Spans[driver].Count == 0 {
				t.Errorf("%s: no %s spans recorded", sp.name, driver)
			}
			if _, err := os.Stat(resultPath(o.OutDir, sp.name, o.Seed, true, "spans.jsonl")); err != nil {
				t.Errorf("%s: span file: %v", sp.name, err)
			}
		}
	}
}

func TestCorruptedAnswerFailsTheCommand(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := Main([]string{"-smoke", "-corrupt", "-workload", "read_uncached_100k", "-out", t.TempDir()}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with a falsified response; stderr: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct bool
		Failed  int64
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct || last.Failed == 0 {
		t.Errorf("result line says correct=%v failed=%d", last.Correct, last.Failed)
	}
}

func TestMoreClientsThanCoresIsRefused(t *testing.T) {
	o := smokeOptions(t, "mixed_write_10k", false)
	o.Clients = runtime.NumCPU() + 1
	if _, err := Run(o); err == nil {
		t.Error("Run accepted more clients than cores")
	}
}

// writeSet writes one result per value of ops_per_s for the
// pure-read workload into a fresh directory.
func writeSet(t *testing.T, opsPerS []float64, scanned float64) string {
	t.Helper()
	dir := t.TempDir()
	for i, v := range opsPerS {
		res := &Result{Workload: "read_uncached_100k", Seed: uint64(i), Values: map[string]float64{
			"setup_s": 1, "ops_per_s": v, "query_p50_us": 30, "query_p99_us": 300, "live_heap_mb": 160,
			"index.scanned_per_query": scanned,
		}}
		if err := writeResult(resultPath(dir, res.Workload, res.Seed, false, "json"), res); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCompareVerdictsAndExitCode(t *testing.T) {
	path, _, _, _, _ := benchmarkJSON(t)
	base := []float64{1000, 1010, 1020, 1005, 995, 1015, 990, 1000, 1010, 1005}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	parent := writeSet(t, base, 3881.5)
	for _, c := range []struct {
		name    string
		change  string
		code    int
		verdict string
	}{
		{"same", writeSet(t, scale(1.01), 3881.5), 0, " same"},
		{"worse", writeSet(t, scale(0.5), 3881.5), 1, " worse"},
		{"better", writeSet(t, scale(2), 3881.5), 0, " better"},
		{"noisy", writeSet(t, []float64{500, 1500, 700, 1300, 900, 1100, 600, 1400, 800, 1200}, 3881.5), 0, " unresolved"},
		{"count", writeSet(t, base, 3000), 1, " differs"},
	} {
		var stdout, stderr bytes.Buffer
		code := Compare([]string{"-bench", path, parent, c.change}, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d; stderr: %s", c.name, code, c.code, stderr.String())
		}
		row := ""
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(line, "ops_per_s") || (c.name == "count" && strings.Contains(line, "index.scanned_per_query")) {
				row = line
			}
		}
		if !strings.HasSuffix(strings.TrimRight(row, " "), strings.TrimSpace(c.verdict)) {
			t.Errorf("%s: row %q, want verdict%s", c.name, row, c.verdict)
		}
	}
	if got := verdict(base, scale(1.01), "higher", 0.1); got != "same" {
		t.Errorf("verdict on a 1%% change = %s, want same", got)
	}
	if got := verdict(base, scale(0.5), "higher", 0.1); got != "worse" {
		t.Errorf("verdict on halved throughput = %s, want worse", got)
	}
	if got := verdict(base, scale(0.5), "lower", 0.1); got != "better" {
		t.Errorf("verdict on halved latency = %s, want better", got)
	}
}
