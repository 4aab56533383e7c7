#!/bin/sh
# Federation smoke test: two primary processes (one replicated to a
# streaming follower) behind a pidcan-router, loadgen driven through
# the router, a cross-process node migration, then kill -9 of the
# replicated primary and promotion of its follower — verifying zero
# acked-write loss through the router and router convergence onto the
# promoted member's epoch.
#
#   scripts/smoke_federation.sh [first-port] [router-qps-floor]
#
# Also asserts the router's scatter-pruning path: a second federation
# (fresh members C and D — routers may share members, but zeroing a
# member's population would disturb the fail-over half) with a
# maximally skewed population (C populated, D's nodes all zeroed to no
# availability) must prune scatter legs (nonzero fed_legs_pruned) while sustaining
# a query qps floor (default 1500) through the pipelined transport.
#
# Every member serves queries, writes and its op-log stream on one
# wire port. Uses twelve consecutive ports starting at first-port
# (default 18591).
set -eu

cd "$(dirname "$0")/.."
base="${1:-18591}"
qpsfloor="${2:-1500}"
ahttp=$base
awire=$((base + 1))
bhttp=$((base + 2))
bwire=$((base + 3))
fhttp=$((base + 4))
fwire=$((base + 5))
rhttp=$((base + 6))
chttp=$((base + 7))
cwire=$((base + 8))
dhttp=$((base + 9))
dwire=$((base + 10))
r2http=$((base + 11))
rbase="http://127.0.0.1:$rhttp"
r2base="http://127.0.0.1:$r2http"

work=$(mktemp -d)
pids=""
cleanup() {
	for p in $pids; do kill -9 "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "building pidcan-serve, pidcan-router, pidcan-loadgen..."
go build -o "$work/pidcan-serve" ./cmd/pidcan-serve
go build -o "$work/pidcan-router" ./cmd/pidcan-router
go build -o "$work/pidcan-loadgen" ./cmd/pidcan-loadgen

wait_healthy() {
	i=0
	until curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "server on port $1 did not come up; log:" >&2
			cat "$2" >&2
			exit 1
		fi
		sleep 0.1
	done
}

post() { curl -sf -X POST -d "$2" "$rbase$1"; }

echo "starting primary A (in-memory) and primary B (durable, replicating on :$bwire)..."
"$work/pidcan-serve" -addr "127.0.0.1:$ahttp" -wire-addr "127.0.0.1:$awire" \
	-shards 2 -nodes 8 -seed 3 -warmup 1m >"$work/a.log" 2>&1 &
pids="$pids $!"
"$work/pidcan-serve" -addr "127.0.0.1:$bhttp" -wire-addr "127.0.0.1:$bwire" \
	-shards 2 -nodes 8 -seed 4 -warmup 1m -data-dir "$work/b" >"$work/b.log" 2>&1 &
bpid=$!
pids="$pids $bpid"
wait_healthy "$ahttp" "$work/a.log"
wait_healthy "$bhttp" "$work/b.log"

echo "starting follower B2..."
"$work/pidcan-serve" -addr "127.0.0.1:$fhttp" -wire-addr "127.0.0.1:$fwire" \
	-shards 2 -nodes 8 -seed 4 -warmup 1m -data-dir "$work/b2" \
	-role follower -primary "127.0.0.1:$bwire" >"$work/b2.log" 2>&1 &
pids="$pids $!"
wait_healthy "$fhttp" "$work/b2.log"

echo "starting router (members: A; B with B2 fallback)..."
"$work/pidcan-router" -addr "127.0.0.1:$rhttp" \
	-members "127.0.0.1:$awire,127.0.0.1:$bwire|127.0.0.1:$fwire" \
	>"$work/router.log" 2>&1 &
pids="$pids $!"
wait_healthy "$rhttp" "$work/router.log"

echo "driving load through the router..."
"$work/pidcan-loadgen" -url "$rbase" -rate 2000 -duration 2s -workers 16 \
	-mix "query=80,update=12,join=6,leave=2" -seed 7 >"$work/loadgen.out" 2>&1 || {
	echo "FAIL: loadgen through the router failed" >&2
	cat "$work/loadgen.out" "$work/router.log" >&2
	exit 1
}

echo "starting members C (populated) and D (zeroed) and the pruning router..."
"$work/pidcan-serve" -addr "127.0.0.1:$chttp" -wire-addr "127.0.0.1:$cwire" \
	-shards 2 -nodes 8 -seed 5 -warmup 1m >"$work/c.log" 2>&1 &
pids="$pids $!"
"$work/pidcan-serve" -addr "127.0.0.1:$dhttp" -wire-addr "127.0.0.1:$dwire" \
	-shards 2 -nodes 2 -seed 6 -warmup 1m >"$work/d.log" 2>&1 &
pids="$pids $!"
wait_healthy "$chttp" "$work/c.log"
wait_healthy "$dhttp" "$work/d.log"
# Zero every availability on member D: its summary max becomes the
# zero vector, which dominates no positive demand, so D's scatter
# leg must be pruned on every query.
for n in $(curl -sf "http://127.0.0.1:$dhttp/nodes" | tr -c '0-9' '\n'); do
	if [ -n "$n" ]; then
		curl -sf -X POST -d "{\"node\":$n,\"avail\":[0,0,0,0,0]}" \
			"http://127.0.0.1:$dhttp/update" >/dev/null
	fi
done
"$work/pidcan-router" -addr "127.0.0.1:$r2http" \
	-members "127.0.0.1:$cwire,127.0.0.1:$dwire" \
	-summary-refresh 100ms >"$work/router2.log" 2>&1 &
pids="$pids $!"
wait_healthy "$r2http" "$work/router2.log"

echo "driving query-only load through the pruning router..."
sleep 0.5 # a few summary-refresh periods: member C's emptiness is provable
"$work/pidcan-loadgen" -url "$r2base" -router -rate 4000 -duration 2s -workers 16 \
	-mix "query=100" -seed 8 -json "$work/prune.json" >"$work/prune.out" 2>&1 || {
	echo "FAIL: loadgen through the pruning router failed" >&2
	cat "$work/prune.out" "$work/router2.log" >&2
	exit 1
}
pruned=$(curl -sf "$r2base/stats" | sed 's/.*"fed_legs_pruned":\([0-9]*\).*/\1/')
if [ -z "$pruned" ] || [ "$pruned" -eq 0 ]; then
	echo "FAIL: skewed population pruned no scatter legs (fed_legs_pruned=$pruned)" >&2
	cat "$work/prune.out" >&2
	curl -sf "$r2base/stats" >&2 || true
	exit 1
fi
qps=$(awk -F': *|,' '/"achieved_qps"/ {printf "%d", $2; exit}' "$work/prune.json")
if [ -z "$qps" ] || [ "$qps" -lt "$qpsfloor" ]; then
	echo "FAIL: pruning router sustained $qps qps, floor $qpsfloor" >&2
	cat "$work/prune.out" >&2
	exit 1
fi
echo "pruning router: $qps qps (floor $qpsfloor), $pruned legs pruned"

# A federation id tags its owning member in bits 48-63 (member+1):
# pick one node per member from the routable set.
nodes_json=$(curl -sf "$rbase/nodes")
m0node=$(printf '%s' "$nodes_json" | tr -c '0-9' '\n' | awk '$0 != "" && int($0/281474976710656) == 1 {print; exit}')
m1node=$(printf '%s' "$nodes_json" | tr -c '0-9' '\n' | awk '$0 != "" && int($0/281474976710656) == 2 {print; exit}')
if [ -z "$m0node" ] || [ -z "$m1node" ]; then
	echo "FAIL: could not find one node per member in $nodes_json" >&2
	exit 1
fi

echo "migrating node $m0node from member 0 to member 1..."
mig=$(post /migrate "{\"node\":$m0node,\"member\":1}")
case "$mig" in
*'"ok":true'*) ;;
*)
	echo "FAIL: migrate response: $mig" >&2
	exit 1
	;;
esac
post /update "{\"node\":$m0node,\"avail\":[210,42,420,63,1.5]}" >/dev/null

echo "waiting for the follower to drain the stream..."
i=0
while :; do
	bn=$(curl -sf "http://127.0.0.1:$bhttp/nodes")
	fn=$(curl -sf "http://127.0.0.1:$fhttp/nodes")
	[ "$bn" = "$fn" ] && break
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "FAIL: follower never converged" >&2
		echo "primary B: $bn" >&2
		echo "follower:  $fn" >&2
		cat "$work/b2.log" >&2
		exit 1
	fi
	sleep 0.1
done

# The reference answer is taken in the router's steady state. Only the
# migrated node meets this demand (100 in dimension 0 is four times
# cmax), so once the router adopts the summary member 0 sends after the
# take, member 0's leg is pruned and shards_queried settles at 1. A
# reference taken before that refresh still has 2 legs and would differ
# from every later answer.
query='{"demand":[100,10,100,10,0.5],"k":4,"no_cache":true}'
i=0
while :; do
	post /query "$query" >"$work/query.acked"
	grep -q '"shards_queried":1}' "$work/query.acked" && break
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "FAIL: router never pruned member 0's leg for a demand only the migrated node meets" >&2
		cat "$work/query.acked" >&2
		curl -sf "$rbase/stats" >&2 || true
		exit 1
	fi
	sleep 0.1
done
curl -sf "$rbase/nodes" >"$work/nodes.acked"

echo "killing primary B (SIGKILL) and promoting B2..."
kill -9 "$bpid"
wait "$bpid" 2>/dev/null || true
promo=$(curl -sf -X POST "http://127.0.0.1:$fhttp/promote")
case "$promo" in
*'"role":"primary"'*) ;;
*)
	echo "FAIL: promote response: $promo" >&2
	cat "$work/b2.log" >&2
	exit 1
	;;
esac

echo "waiting for the router to converge onto the promoted member's epoch..."
# Converged means the router records epoch 2 for member 1 AND answers
# exactly what it answered before the kill. Epoch 2 alone is not
# enough: a listing taken while member 1's connection is still
# redialling is a partial gather, and a query taken while member 0's
# summary has aged out behind a slow refresh pass has an extra leg —
# the transport and the pruning doing what they should, not a lost
# write — so both comparisons are retried inside the same 10 s budget.
i=0
while :; do
	# Traffic is what carries epoch evidence; queries keep flowing
	# while the router walks dead primary -> fallback follower.
	post /query "$query" >"$work/query.after" 2>/dev/null || true
	# Member 1's observed epoch, from /stats: its "map" entry and its
	# "members" entry carry the same one.
	epoch=$(curl -sf "$rbase/stats" | sed 's/.*"index":1[^}]*"epoch":\([0-9]*\).*/\1/')
	if [ "$epoch" = "2" ]; then
		curl -sf "$rbase/nodes" >"$work/nodes.after" || true
		cmp -s "$work/nodes.acked" "$work/nodes.after" &&
			cmp -s "$work/query.acked" "$work/query.after" && break
	fi
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		if [ "$epoch" != "2" ]; then
			echo "FAIL: router never observed epoch 2 (last: $epoch)" >&2
			curl -sf "$rbase/stats" >&2 || true
		else
			echo "FAIL: acked node set or query results lost across member fail-over" >&2
			diff "$work/nodes.acked" "$work/nodes.after" >&2 || true
			diff "$work/query.acked" "$work/query.after" >&2 || true
		fi
		cat "$work/router.log" >&2
		exit 1
	fi
	sleep 0.1
done

fail=0
# Writes to both members still land through the router — including
# the migrated node's original id, now served by the promoted B2.
for n in $m1node $m0node; do
	code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
		-d "{\"node\":$n,\"avail\":[250,45,430,65,1.5]}" "$rbase/update")
	if [ "$code" != "200" ]; then
		echo "FAIL: post-fail-over update of node $n returned $code, want 200" >&2
		fail=1
	fi
done
[ "$fail" -eq 0 ] || exit 1
echo "OK: zero acked-write loss across member kill -9 + promotion, router converged to epoch 2; pruning router held $qps qps with $pruned legs pruned"
