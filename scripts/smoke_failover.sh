#!/bin/sh
# Fail-over smoke test for op-log replication: start a primary and a
# follower streaming from the primary's one wire port as two
# processes, drive acknowledged writes, check that the address the
# follower redirects writes to is that wire port and serves a wire
# load, let the follower drain, kill the primary hard (SIGKILL),
# promote the follower over HTTP, and verify the promoted node serves
# every write the primary acknowledged — plus accepts new writes under
# the sealed epoch.
#
#   scripts/smoke_failover.sh [http-port] [wire-port] [follower-port]
#
# Exits non-zero (with a diff) on any acked-write loss.
set -eu

cd "$(dirname "$0")/.."
pport="${1:-18571}"
pwire="${2:-18572}"
fport="${3:-18573}"
pbase="http://127.0.0.1:$pport"
fbase="http://127.0.0.1:$fport"

work=$(mktemp -d)
ppid=""
fpid=""
cleanup() {
	[ -n "$ppid" ] && kill -9 "$ppid" 2>/dev/null || true
	[ -n "$fpid" ] && kill -9 "$fpid" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "building pidcan-serve and pidcan-loadgen..."
go build -o "$work/pidcan-serve" ./cmd/pidcan-serve
go build -o "$work/pidcan-loadgen" ./cmd/pidcan-loadgen

wait_healthy() {
	base="$1"
	log="$2"
	i=0
	until curl -sf "$base/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "server at $base did not come up; log:" >&2
			cat "$log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

post() { curl -sf -X POST -d "$3" "$1$2"; }

echo "starting primary (wire protocol and replication on :$pwire)..."
"$work/pidcan-serve" -addr "127.0.0.1:$pport" -shards 2 -nodes 8 -seed 3 \
	-warmup 1m -data-dir "$work/primary" -wire-addr "127.0.0.1:$pwire" \
	>"$work/primary.log" 2>&1 &
ppid=$!
wait_healthy "$pbase" "$work/primary.log"

echo "starting follower..."
"$work/pidcan-serve" -addr "127.0.0.1:$fport" -shards 2 -nodes 8 -seed 3 \
	-warmup 1m -data-dir "$work/follower" -role follower \
	-primary "127.0.0.1:$pwire" >"$work/follower.log" 2>&1 &
fpid=$!
wait_healthy "$fbase" "$work/follower.log"

echo "driving acknowledged writes (joins, updates, checkpoint, post-checkpoint writes)..."
join=$(post "$pbase" /join '{"avail":[300,50,500,80,2]}')
node=$(printf '%s' "$join" | sed 's/[^0-9]*\([0-9]*\).*/\1/')
i=0
while [ "$i" -lt 20 ]; do
	post "$pbase" /update "{\"node\":$node,\"avail\":[2$i,40,400,60,1],\"announce\":true}" >/dev/null
	i=$((i + 1))
done
post "$pbase" /checkpoint '' >/dev/null
# These live only in the post-checkpoint log tail + the stream.
post "$pbase" /join '{"avail":[111,11,111,11,1]}' >/dev/null
post "$pbase" /update "{\"node\":$node,\"avail\":[210,42,420,63,1.5],\"announce\":true}" >/dev/null

# Writes on the follower are refused with 503 naming the primary's
# wire address — where a wire client's redirect lands, so it must
# serve a mixed wire load without an error.
body=$(curl -s -X POST -d "{\"node\":$node,\"avail\":[1,1,1,1,1]}" "$fbase/update")
redirect=$(printf '%s' "$body" | sed 's/.*"primary":"\([^"]*\)".*/\1/')
if [ "$redirect" != "127.0.0.1:$pwire" ]; then
	echo "FAIL: follower redirects writes to '$redirect', want the primary's wire address 127.0.0.1:$pwire ($body)" >&2
	exit 1
fi
echo "driving a wire load against the redirect address $redirect..."
"$work/pidcan-loadgen" -url "$pbase" -proto wire -wire "$redirect" -rate 2000 -duration 1s \
	-workers 4 -mix "query=80,update=15,join=4,leave=1" -seed 5 -json "$work/redirect.json" \
	>"$work/redirect.out" 2>&1 || {
	echo "FAIL: loadgen against the redirect address failed" >&2
	cat "$work/redirect.out" >&2
	exit 1
}
errors=$(tr -d ' \t\n' <"$work/redirect.json" | sed 's/.*"errors":\([0-9]*\),"shed".*/\1/')
if [ "$errors" != "0" ]; then
	echo "FAIL: wire load against the redirect address saw $errors errors" >&2
	cat "$work/redirect.out" >&2
	exit 1
fi

echo "waiting for the follower to drain the stream..."
i=0
while :; do
	pn=$(curl -sf "$pbase/nodes")
	fn=$(curl -sf "$fbase/nodes")
	[ "$pn" = "$fn" ] && break
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "FAIL: follower never converged" >&2
		echo "primary:  $pn" >&2
		echo "follower: $fn" >&2
		cat "$work/follower.log" >&2
		exit 1
	fi
	sleep 0.1
done

# Reads serve on the follower; writes are refused with 503.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
	-d "{\"node\":$node,\"avail\":[1,1,1,1,1]}" "$fbase/update")
if [ "$code" != "503" ]; then
	echo "FAIL: follower write returned $code, want 503" >&2
	exit 1
fi

query='{"demand":[100,10,100,10,0.5],"k":4,"no_cache":true}'
curl -sf "$pbase/nodes" >"$work/nodes.acked"
post "$pbase" "/query" "$query" >"$work/query.acked"

echo "killing the primary (SIGKILL) and promoting the follower..."
kill -9 "$ppid"
wait "$ppid" 2>/dev/null || true
ppid=""
promo=$(post "$fbase" /promote '')
case "$promo" in
*'"role":"primary"'*) ;;
*)
	echo "FAIL: promote response: $promo" >&2
	cat "$work/follower.log" >&2
	exit 1
	;;
esac

curl -sf "$fbase/nodes" >"$work/nodes.after"
post "$fbase" "/query" "$query" >"$work/query.after"

fail=0
if ! cmp -s "$work/nodes.acked" "$work/nodes.after"; then
	echo "FAIL: acked node set lost across fail-over" >&2
	diff "$work/nodes.acked" "$work/nodes.after" >&2 || true
	fail=1
fi
if ! cmp -s "$work/query.acked" "$work/query.after"; then
	echo "FAIL: acked query results lost across fail-over" >&2
	diff "$work/query.acked" "$work/query.after" >&2 || true
	fail=1
fi
# The promoted node accepts writes under the sealed epoch.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
	-d "{\"node\":$node,\"avail\":[250,45,430,65,1.5],\"announce\":true}" "$fbase/update")
if [ "$code" != "200" ]; then
	echo "FAIL: write on promoted node returned $code, want 200" >&2
	fail=1
fi
epoch=$(curl -sf "$fbase/stats" | sed 's/.*"epoch":\([0-9]*\).*/\1/')
if [ "$epoch" != "2" ]; then
	echo "FAIL: promoted epoch $epoch, want 2" >&2
	fail=1
fi
[ "$fail" -eq 0 ] || exit 1
echo "OK: zero acked-write loss across kill -9 + promotion (epoch $epoch), promoted node writable"
