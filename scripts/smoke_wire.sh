#!/bin/sh
# Wire-protocol smoke test: start pidcan-serve with the binary wire
# edge enabled, drive a closed-loop query load over it with
# pidcan-loadgen -proto wire, and assert the edge sustains at least
# the threshold throughput with zero protocol errors (client-side
# errors and server-side rejected frames both count).
#
#   scripts/smoke_wire.sh [http-port] [wire-port] [min-qps]
#
# The default threshold is 200000 qps — the serving-edge target the
# wire protocol exists to hit (the JSON API peaks an order of
# magnitude lower on the same container).
set -eu

cd "$(dirname "$0")/.."
hport="${1:-18581}"
wport="${2:-18582}"
minqps="${3:-200000}"
base="http://127.0.0.1:$hport"

work=$(mktemp -d)
spid=""
cleanup() {
	[ -n "$spid" ] && kill -9 "$spid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "building pidcan-serve and pidcan-loadgen..."
go build -o "$work/pidcan-serve" ./cmd/pidcan-serve
go build -o "$work/pidcan-loadgen" ./cmd/pidcan-loadgen

echo "starting server (wire on :$wport)..."
"$work/pidcan-serve" -addr "127.0.0.1:$hport" -wire-addr "127.0.0.1:$wport" \
	-shards 2 -nodes 32 -seed 7 -warmup 1m >"$work/serve.log" 2>&1 &
spid=$!

i=0
until curl -sf "$base/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "server did not come up; log:" >&2
		cat "$work/serve.log" >&2
		exit 1
	fi
	sleep 0.1
done

echo "driving closed-loop queries over the wire edge..."
"$work/pidcan-loadgen" -url "$base" -proto wire -wire "127.0.0.1:$wport" \
	-rate 0 -duration 5s -workers 4 -mix query=100 -seed 9 \
	-json "$work/summary.json"

flat=$(tr -d ' \t\n' < "$work/summary.json")
qps=$(printf '%s' "$flat" | sed 's/.*"achieved_qps":\([0-9.]*\).*/\1/')
errors=$(printf '%s' "$flat" | sed 's/.*"errors":\([0-9]*\),"shed".*/\1/')
stats=$(curl -sf "$base/stats")
rejected=$(printf '%s' "$stats" | sed 's/.*"wire_rejected":\([0-9]*\).*/\1/')
case "$rejected" in *[!0-9]*) rejected=0 ;; esac # omitempty: absent means 0

fail=0
# The indexed read path and the query cache report through /stats —
# that is where pidcan-loadgen's end-of-run server probe reads them,
# so every counter must be present, and a query-only load must have
# driven searches through the snapshot index and answered repeated
# demands from the cache.
for key in index_searches index_candidates index_builds cache_hits cache_stale cache_revalidated; do
	case "$stats" in
	*"\"$key\":"*) ;;
	*)
		echo "FAIL: /stats is missing the $key counter" >&2
		fail=1
		;;
	esac
done
searches=$(printf '%s' "$stats" | sed 's/.*"index_searches":\([0-9]*\).*/\1/')
case "$searches" in '' | *[!0-9]*) searches=0 ;; esac
if [ "$searches" -eq 0 ]; then
	echo "FAIL: index_searches is 0 after a query load — the read path is not using the snapshot index" >&2
	fail=1
fi
hits=$(printf '%s' "$stats" | sed 's/.*"cache_hits":\([0-9]*\).*/\1/')
case "$hits" in '' | *[!0-9]*) hits=0 ;; esac
if [ "$hits" -eq 0 ]; then
	echo "FAIL: cache_hits is 0 after a query-only load over repeated demand profiles" >&2
	fail=1
fi
if [ "$errors" != "0" ]; then
	echo "FAIL: $errors loadgen errors over the wire protocol" >&2
	fail=1
fi
if [ "$rejected" != "0" ]; then
	echo "FAIL: server rejected $rejected wire frames" >&2
	fail=1
fi
if ! awk -v q="$qps" -v m="$minqps" 'BEGIN { exit !(q + 0 >= m + 0) }'; then
	echo "FAIL: wire throughput $qps qps below the $minqps floor" >&2
	fail=1
fi
[ "$fail" -eq 0 ] || { cat "$work/serve.log" >&2; exit 1; }
echo "OK: wire edge sustained $qps qps (floor $minqps), zero protocol errors"
