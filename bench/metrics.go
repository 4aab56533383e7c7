package bench

import (
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// MetricDef names one reported metric. The two tables below are the
// benchmark's contract and must equal BENCHMARK.json (a test checks).
type MetricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// EndToEnd are the metrics a caller of the system sees, measured with
// tracing off and reported by every workload.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"query_p50_us", "us", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// PerLayer are the metrics of the traced run: first the
// caller-visible ones that cannot be end-to-end metrics — timings only
// some workloads have, the query tail (its run-to-run spread on a
// shared host exceeds any bound the contract allows) and failed_share
// (0 on a correct run) — then one group per module.
var PerLayer = []MetricDef{
	{"query_p99_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"paced_p50_us", "us", "lower"},
	{"paced_p99_us", "us", "lower"},
	{"failed_share", "ratio", "lower"},

	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.roundtrip_us", "us", "lower"},
	{"wire.requests", "count", "lower"},
	{"wire.rejected", "count", "lower"},

	{"cache.hit_rate", "ratio", "higher"},
	{"cache.stale_share", "ratio", "lower"},
	{"cache.rotations", "count", "lower"},
	{"cache.adaptions", "count", "lower"},
	{"cache.hit_ns", "ns", "lower"},
	{"cache.miss_ns", "ns", "lower"},

	{"index.search_ns", "ns", "lower"},
	{"index.scanned_per_query", "count", "lower"},
	{"index.scanned_share", "ratio", "lower"},
	{"index.update_ns", "ns", "lower"},
	{"index.build_ns", "ns", "lower"},
	{"index.delta_builds", "count", "lower"},
	{"index.full_builds", "count", "lower"},
	{"index.reuses", "count", "higher"},

	{"engine.rank_ns", "ns", "lower"},
	{"engine.query_self_ns", "ns", "lower"},
	{"engine.candidates_per_query", "count", "lower"},
	{"engine.useful_candidate_share", "ratio", "higher"},

	{"shard.batches", "count", "lower"},
	{"shard.ops_per_batch", "count", "higher"},
	{"shard.queue_depth_max", "count", "lower"},
	{"shard.write_self_us", "us", "lower"},

	{"backend.set_avail_us", "us", "lower"},
	{"backend.step_us", "us", "lower"},
	{"backend.idle_cpu_share", "ratio", "lower"},

	{"wal.bytes_per_write", "B", "lower"},
	{"wal.records", "count", "lower"},
	{"wal.errors", "count", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.sync_us", "us", "lower"},
	{"wal.recovery_ms", "ms", "lower"},

	{"repl.lag_records_max", "count", "lower"},
	{"repl.drain_ms", "ms", "lower"},
	{"repl.follower_converged", "count", "higher"},

	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.cpu_s_per_kop", "s", "lower"},

	{"loadgen.clients", "count", "higher"},
	{"loadgen.late_share", "ratio", "lower"},
	{"loadgen.samples_query", "count", "higher"},
	{"loadgen.samples_write", "count", "higher"},
	{"loadgen.trace_overhead_share", "ratio", "lower"},
}

// Env stamps a result with where it was measured.
type Env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
}

func environment(commit string, clients int) Env {
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Kernel:     kernel(),
		Clients:    clients,
	}
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// gitCommit asks git for the checkout's commit; a checkout that is
// not a repository reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Result is everything one run of one workload measured.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Env       Env     `json:"env"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	// FirstError is the first failure or referee violation, if any.
	FirstError string `json:"first_error,omitempty"`
	// Values holds every metric measured, end-to-end and per-layer, by
	// name; Timings the sample count and percentile behind each
	// latency.
	Values  map[string]float64 `json:"values"`
	Timings map[string]Timing  `json:"timings"`
	// SliceOpsPerS is the closed loop's throughput in each slice of the
	// window, in order (a traced run traces the odd ones).
	SliceOpsPerS []float64 `json:"slice_ops_per_s"`
	// Spans is the traced run's per-name roll-up; SpansWritten how many
	// spans went to the span file.
	Spans        map[string]SpanSummary `json:"spans,omitempty"`
	SpansWritten int                    `json:"spans_written,omitempty"`
}

// reported are the metrics the run's mode must print: end-to-end with
// tracing off, per-layer with it on.
func (r *Result) reported() []MetricDef {
	if r.Trace {
		return PerLayer
	}
	return EndToEnd
}
