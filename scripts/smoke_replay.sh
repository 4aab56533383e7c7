#!/bin/sh
# Record/replay smoke test, both halves of the subsystem:
#
#  1. Scenario corpus: compile the flash-crowd and correlated-death
#     scenarios (their queries go through the cache), replay each
#     against a fresh engine with an uncached reference engine and the
#     referee checking every response, and assert their invariant sets
#     (pidcan-replay exits non-zero on any violation). The flash-crowd
#     trace also round-trips through a trace file.
#  2. Live capture: start pidcan-serve, begin a capture over HTTP,
#     drive mixed load with pidcan-loadgen (seeded; the summary line
#     must echo the seed), stop the capture, check the capture_*
#     gauges in /stats, download the trace, and replay it into a
#     fresh engine asserting zero acked-write loss and digest
#     equivalence against the reference engine and the referee.
#
#   scripts/smoke_replay.sh [http-port]
#
set -eu

cd "$(dirname "$0")/.."
port="${1:-18591}"
base="http://127.0.0.1:$port"

work=$(mktemp -d)
spid=""
cleanup() {
	[ -n "$spid" ] && kill -9 "$spid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "building pidcan-serve, pidcan-loadgen, pidcan-replay..."
go build -o "$work/pidcan-serve" ./cmd/pidcan-serve
go build -o "$work/pidcan-loadgen" ./cmd/pidcan-loadgen
go build -o "$work/pidcan-replay" ./cmd/pidcan-replay

echo "--- scenario corpus ---"
"$work/pidcan-replay" -scenario flash-crowd -seed 42 -out "$work/flash.bin" >"$work/flash.out" 2>&1 ||
	{ cat "$work/flash.out" >&2; exit 1; }
grep -q "all invariants hold" "$work/flash.out" ||
	{ echo "FAIL: flash-crowd did not assert its invariants" >&2; cat "$work/flash.out" >&2; exit 1; }
"$work/pidcan-replay" -scenario correlated-death -seed 42 >"$work/death.out" 2>&1 ||
	{ cat "$work/death.out" >&2; exit 1; }
grep -q "all invariants hold" "$work/death.out" ||
	{ echo "FAIL: correlated-death did not assert its invariants" >&2; cat "$work/death.out" >&2; exit 1; }
echo "flash-crowd + correlated-death replayed, invariants hold"

echo "replaying the compiled flash-crowd trace file (strict digests)..."
"$work/pidcan-replay" -trace "$work/flash.bin" -strict >"$work/flashfile.out" 2>&1 ||
	{ cat "$work/flashfile.out" >&2; exit 1; }
grep -q "all invariants hold" "$work/flashfile.out" ||
	{ echo "FAIL: flash-crowd trace-file replay" >&2; cat "$work/flashfile.out" >&2; exit 1; }

echo "--- live capture ---"
echo "starting pidcan-serve on :$port..."
"$work/pidcan-serve" -addr "127.0.0.1:$port" -shards 4 -nodes 32 -seed 7 \
	-warmup 1m >"$work/serve.log" 2>&1 &
spid=$!
i=0
until curl -sf "$base/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "server never came up; log:" >&2
		cat "$work/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done

echo "starting capture..."
start=$(curl -sf -X POST "$base/capture/start")
case "$start" in
*'"ok":true'*) ;;
*)
	echo "FAIL: /capture/start: $start" >&2
	exit 1
	;;
esac

echo "driving seeded load (pidcan-loadgen -seed 42)..."
"$work/pidcan-loadgen" -url "$base" -rate 3000 -duration 3s -workers 16 \
	-seed 42 >"$work/loadgen.out" 2>&1 ||
	{ cat "$work/loadgen.out" >&2; exit 1; }
grep -q "seed=42" "$work/loadgen.out" ||
	{ echo "FAIL: loadgen summary does not echo the seed" >&2; cat "$work/loadgen.out" >&2; exit 1; }

echo "checking capture_* gauges in /stats..."
stats=$(curl -sf "$base/stats")
for gauge in capture_records capture_dropped capture_bytes; do
	case "$stats" in
	*"\"$gauge\""*) ;;
	*)
		echo "FAIL: /stats missing $gauge: $stats" >&2
		exit 1
		;;
	esac
done
case "$stats" in
*'"capture_records":0,'*)
	echo "FAIL: capture recorded nothing under load: $stats" >&2
	exit 1
	;;
esac

echo "stopping capture..."
stop=$(curl -sf -X POST "$base/capture/stop")
case "$stop" in
*'"dropped":0'*) ;;
*)
	echo "FAIL: capture dropped events (or stop failed): $stop" >&2
	exit 1
	;;
esac

echo "downloading the trace and replaying it into a fresh engine..."
curl -sf "$base/capture/trace" -o "$work/live.bin"
[ -s "$work/live.bin" ] || { echo "FAIL: empty trace download" >&2; exit 1; }
"$work/pidcan-replay" -trace "$work/live.bin" >"$work/live.out" 2>&1 ||
	{ cat "$work/live.out" >&2; exit 1; }
grep -q "all invariants hold" "$work/live.out" ||
	{ echo "FAIL: live-trace replay" >&2; cat "$work/live.out" >&2; exit 1; }
grep "replayed" "$work/live.out" || true
echo "OK: scenario corpus asserted; live record -> replay round trip holds invariants"
