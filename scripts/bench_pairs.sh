#!/usr/bin/env bash
# Parent-vs-change comparison of the repo benchmark (BENCHMARK.json) as
# alternating pairs, the way a claimed gain has to be measured:
#
#   scripts/bench_pairs.sh <parent-ref> [pairs=10] [workload...]
#
# The parent is checked out with `git worktree` under .bench_build/
# (<parent-ref> may also be a directory that already holds a checkout of
# it, which is then used as is). Pair i runs every workload with seed i
# on both sides, each side through its own bench/run.sh — so each side
# is built from its own source by its own benchmark code — and the side
# that goes first flips every pair. Then the change's benchcmp prints
# the verdict table, followed by each side's quartile spread
# (q3-q1)/median for every row: a row whose spread exceeds its bound
# was too noisy to call. Exits non-zero on any `worse` or `missing` row,
# and on a `differs` row (a count benchcmp holds to equality, seed by
# seed) unless it is index.scanned_per_query with the change's count
# the lower one: fewer entries visited for the same inputs is what that
# count is there to show. Results stay under .bench_build/pairs/; a run
# of all four workloads takes about 100 s per pair.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,6p' "$0" >&2; exit 2; }
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ref="$1"
pairs="${2:-10}"
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] ||
	workloads=(read_uncached_100k mixed_write_10k wire_cached_1k durable_repl_write_10k)

work="$root/.bench_build/pairs"
rm -rf "$work/parent-out" "$work/change-out"
mkdir -p "$work"
if [ -d "$ref" ]; then
	parent="$(cd "$ref" && pwd)"
else
	parent="$work/parent"
	git -C "$root" worktree remove --force "$parent" 2>/dev/null || true
	git -C "$root" worktree add --detach "$parent" "$ref" >/dev/null
	trap 'git -C "$root" worktree remove --force "$parent"' EXIT
fi

# side <name> <checkout> <seed>: every workload once, untraced.
side() {
	for w in "${workloads[@]}"; do
		echo "pair $3 $1 $w" >&2
		(cd "$2" && bash bench/run.sh --workload "$w" --seed "$3" --trace 0 -out "$work/$1-out") |
			grep -E '^(ops_per_s|query_p50_us) ' >&2
	done
}
for i in $(seq 1 "$pairs"); do
	if (( i % 2 )); then
		side parent "$parent" "$i"; side change "$root" "$i"
	else
		side change "$root" "$i"; side parent "$parent" "$i"
	fi
done

code=0
"$root/.bench_build/benchcmp" -bench "$root/BENCHMARK.json" "$work/parent-out" "$work/change-out" |
	tee "$work/verdict.txt" || code=$?
# benchcmp pads its columns with at least two spaces: the verdict is
# the last column, and on a `differs` row columns 5 and 6 are the
# parent's and the change's count for one seed.
if [ "$code" -eq 1 ]; then
	code="$(awk -F '  +' '
		$NF == "worse" || $NF == "missing" { bad = 1 }
		$NF == "differs" && !($2 == "index.scanned_per_query" && $6 + 0 < $5 + 0) { bad = 1 }
		END { print bad + 0 }' "$work/verdict.txt")"
	[ "$code" -ne 0 ] || echo "every differs row is index.scanned_per_query with the change's count lower: passing"
fi
echo
echo "quartile spread (q3-q1)/median: parent, change"
# On a metric row columns 5 and 6 are "q1 / median / q3" of the parent
# and the change.
awk -F '  +' 'NR > 1 && $5 ~ "/" {
	split($5, a, " / "); split($6, b, " / ")
	printf "%-24s %-14s %6.3f %6.3f\n", $1, $2, (a[3]-a[1])/a[2], (b[3]-b[1])/b[2]
}' "$work/verdict.txt"
exit "$code"
