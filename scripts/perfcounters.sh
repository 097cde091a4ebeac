#!/usr/bin/env bash
# Runs one pass of the pipeline benchmark (perfbench, seed 7) on every
# workload, traced and untraced, and compares its deterministic counters,
# the sweep's report digest and the answer-quality metrics, rounded to 6
# significant digits, with the committed scripts/perfcounters.txt.
# Wall-clock figures are reported by perfbench, never compared here. Run
# from the repository root:
#
#   bash scripts/perfcounters.sh          # compare; exit 1 on a difference
#   bash scripts/perfcounters.sh -update  # rewrite scripts/perfcounters.txt
#
# A change that moves a counter on purpose reruns with -update and says
# why in CHANGES.md.
set -euo pipefail
export LC_ALL=C

file=scripts/perfcounters.txt
update=0
case "${1:-}" in
"") ;;
-update) update=1 ;;
*)
	echo "usage: bash scripts/perfcounters.sh [-update]" >&2
	exit 2
	;;
esac

traced=(core.select.cuts_per_job core.select.ident_calls_per_job core.select.passed_frac
	interp.steps_per_job sim.instrs_per_job core.patch.materialized_frac
	dse.ident_calls_per_sweep dse.seed_hit_frac)
untraced=(ok_frac exhaustive_frac speedup_geomean gain_fidelity)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# metric prints the named metric of a perfbench result line to 6
# significant digits.
metric() {
	local v
	v=$(grep -o "\"$2\":{\"value\":[^,}]*" <<<"$1" | head -n 1)
	if [ -z "$v" ]; then
		echo "perfcounters: no metric $2 in the result line" >&2
		exit 1
	fi
	printf '%.6g' "${v##*:}"
}

{
	echo "# perfbench seed 7, one pass per workload; written by bash scripts/perfcounters.sh -update"
	for w in small-programs kernels-iterative kernels-optimal dse-sweep; do
		for trace in 1 0; do
			out="$tmp/$w-$trace.txt"
			bash perfbench/run.sh --workload "$w" --seed 7 --seconds 0 --trace "$trace" >"$out"
			line=$(tail -n 1 "$out")
			if [ "$trace" = 1 ]; then
				names=("${traced[@]}")
			else
				names=("${untraced[@]}")
			fi
			for m in "${names[@]}"; do
				echo "$w $m $(metric "$line" "$m")"
			done
		done
		if [ "$w" = dse-sweep ]; then
			echo "$w report_digest $(grep -o 'status=report [0-9a-f]*' "$out" | head -n 1 | cut -d' ' -f2)"
		fi
	done
} >"$tmp/counters.txt"

if [ "$update" = 1 ]; then
	cp "$tmp/counters.txt" "$file"
	echo "perfcounters: wrote $file"
	exit 0
fi
if ! diff -u "$file" "$tmp/counters.txt"; then
	echo "perfcounters: the counters above differ from $file" >&2
	exit 1
fi
echo "perfcounters: every counter matches $file"
