#!/bin/sh
# Run the serving-engine benchmarks — including the durable
# write-path overhead (BenchmarkServeDurable*), warm-restart
# recovery time (BenchmarkServeRecovery), the binary wire
# protocol vs HTTP (BenchmarkWire*, BenchmarkServeHTTPQuery),
# and the snapshot-index population sweep
# (BenchmarkServeQueryNoCache/pop=*, sub-linear scaling to 100k
# nodes) — and collect their results
# as BENCH_serve.json (one JSON object per line) for the perf
# trajectory across PRs.
#
#   scripts/bench_serve.sh [output-file] [benchtime]
#
# Defaults: BENCH_serve.json in the repo root, 1s per benchmark.
# The benchmarks themselves emit the JSON (see emitServeBench in
# bench_test.go), so no output parsing is involved.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_serve.json}"
benchtime="${2:-1s}"

tmp="$out.tmp"
rm -f "$tmp"
PIDCAN_BENCH_SERVE_JSON="$tmp" \
	go test -run '^$' -bench 'BenchmarkServe|BenchmarkWire|BenchmarkFed' -benchtime "$benchtime" .

# The harness ramps b.N, emitting one line per calibration run; keep
# only the final (longest, most accurate) run of each benchmark.
awk -F'"' '{ last[$4] = $0 } END { for (b in last) print last[b] }' "$tmp" | sort > "$out"
rm -f "$tmp"
echo "wrote $(wc -l < "$out") results to $out"
