#!/usr/bin/env bash
# Runs the end-to-end benchmark on two checkouts in alternating pairs and
# reports, for each end-to-end metric, both sides' median and quartiles and
# how many pairs the change won:
#
#   scripts/benchpairs.sh <parent-dir> <change-dir> <workload> <seed>...
#
# One pair per seed. Each side runs its own bench/run.sh, which builds that
# checkout's benchmark from its own source; the first side of a pair
# alternates, parent first on odd pairs. BENCH_ARGS is passed to every run
# (for example BENCH_ARGS="-seconds 3"); both sides always get the same.
# Each run's contract line is echoed as it lands. Ties count for neither
# side. A gain holds when the change wins at least 9 pairs in 10 and the
# medians differ by more than the parent's interquartile range. The
# direction of each metric comes from the change's BENCHMARK.json. Needs
# jq. The script writes nothing: each checkout's bench/run.sh keeps its
# build in that checkout's .bench_build/.
set -euo pipefail

if [ "$#" -lt 4 ]; then
	echo "usage: $0 <parent-dir> <change-dir> <workload> <seed>..." >&2
	exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
shift 3
command -v jq >/dev/null || { echo "benchpairs: jq is required" >&2; exit 2; }

# run <dir> <seed>: one run's contract line (the last line of stdout), as
# "metric value" lines, plus "failed <n>" and "attempted <n>".
run() {
	local line
	# The benchmark exits 1 when an op failed, and its line counts them.
	# shellcheck disable=SC2086 # BENCH_ARGS is a list of flags
	line="$(bash "$1/bench/run.sh" -workload "$workload" -seed "$2" ${BENCH_ARGS:-} 2>/dev/null | tail -n 1)" || true
	if [ -z "$line" ]; then
		echo "benchpairs: $1 printed no result at seed $2" >&2
		return 1
	fi
	echo "$line" >&2
	jq -r '(.metrics | to_entries[] | "\(.key) \(.value.value)"), "failed \(.failed)", "attempted \(.attempted)"' <<<"$line"
}

results=""
pair=0
for seed in "$@"; do
	pair=$((pair + 1))
	sides=(parent change)
	if [ $((pair % 2)) -eq 0 ]; then
		sides=(change parent)
	fi
	for side in "${sides[@]}"; do
		dir="$parent"
		[ "$side" = change ] && dir="$change"
		echo "pair $pair seed $seed $side:" >&2
		out="$(run "$dir" "$seed")"
		results+="$(sed "s/^/$pair $side /" <<<"$out")"$'\n'
	done
done

better="$(jq -r '.end_to_end[] | "\(.name) \(.better)"' "$change/BENCHMARK.json")"

echo
echo "$workload over $# pairs (seeds $*), ${BENCH_ARGS:-default arguments}"
awk -v better="$better" '
function quart(v, n, p,   i, j, t, h) {
	# v[1..n] sorted in place; linear interpolation at (n-1)p.
	for (i = 2; i <= n; i++) {
		t = v[i]
		for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
		v[j + 1] = t
	}
	h = 1 + (n - 1) * p
	i = int(h)
	return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i])
}
BEGIN {
	nb = split(better, b, "\n")
	for (i = 1; i <= nb; i++) {
		split(b[i], f, " ")
		dir[f[1]] = f[2]
	}
}
NF == 4 {
	val[$3, $1, $2] = $4
	if (!($3 in seen)) { seen[$3] = 1; names[++nm] = $3 }
	if ($1 > np) np = $1
}
END {
	printf "%-22s %12s %25s %12s %25s %8s %6s  %s\n", "metric", "parent p50", "parent q1-q3", "change p50", "change q1-q3", "ratio", "wins", "verdict"
	for (k = 1; k <= nm; k++) {
		m = names[k]
		wins = 0
		for (p = 1; p <= np; p++) {
			a[p] = val[m, p, "parent"]; c[p] = val[m, p, "change"]
			if (m in dir && ((dir[m] == "higher" && c[p] > a[p]) || (dir[m] == "lower" && c[p] < a[p]))) wins++
		}
		pm = quart(a, np, 0.5); p1 = quart(a, np, 0.25); p3 = quart(a, np, 0.75)
		cm = quart(c, np, 0.5); c1 = quart(c, np, 0.25); c3 = quart(c, np, 0.75)
		ratio = pm != 0 ? cm / pm : 0
		verdict = "-"
		if (m in dir) {
			gain = (dir[m] == "higher") ? cm - pm : pm - cm
			verdict = (10 * wins >= 9 * np && gain > p3 - p1) ? "gain" : "no gain shown"
		}
		printf "%-22s %12.6g %12.6g-%-12.6g %12.6g %12.6g-%-12.6g %8.4f %3d/%-2d  %s\n", m, pm, p1, p3, cm, c1, c3, ratio, wins, np, verdict
	}
}' <<<"$results"
