#!/usr/bin/env bash
# Same-machine A/B of two revisions on the repository's benchmark:
#
#   bash scripts/ab.sh --base REV --change REV --workload W --pairs N --seed S
#
# Each revision is checked out in a detached git worktree, removed on exit,
# and run through the base revision's BENCHMARK.json `command` for its
# `run_seconds`; the benchmark builds itself from the worktree's sources.
# Pair i runs the base first when i is odd and the change first when it is
# even. Every run's output stays in the directory printed at the start
# (under $TMPDIR), with one record per run in runs.jsonl. The table and
# the per-metric verdicts come from ab_verdict.jq, which holds all of the
# arithmetic; scripts/ab_test.sh checks it against canned runs.
set -euo pipefail

usage() {
	echo "usage: $0 --base REV --change REV --workload W --pairs N --seed S" >&2
	exit 2
}
die() {
	echo "ab: $*" >&2
	exit 1
}

base= change= workload= pairs= seed=
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--base) base=$2 ;;
	--change) change=$2 ;;
	--workload) workload=$2 ;;
	--pairs) pairs=$2 ;;
	--seed) seed=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ -n "$base" ] && [ -n "$change" ] && [ -n "$workload" ] && [ -n "$seed" ] || usage
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

verdict="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/ab_verdict.jq"
repo="$(git rev-parse --show-toplevel)"
base_sha="$(git -C "$repo" rev-parse --verify --quiet "$base^{commit}")" || die "unknown revision $base"
change_sha="$(git -C "$repo" rev-parse --verify --quiet "$change^{commit}")" || die "unknown revision $change"

out="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trees="$(mktemp -d "${TMPDIR:-/tmp}/ab-trees.XXXXXX")"
cleanup() {
	for side in base change; do
		if [ -d "$trees/$side" ]; then
			git -C "$repo" worktree remove --force "$trees/$side" || true
		fi
	done
	chmod -R u+w "$trees" 2>/dev/null || true
	rm -rf "$trees"
	git -C "$repo" worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$repo" worktree add --quiet --detach "$trees/base" "$base_sha"
git -C "$repo" worktree add --quiet --detach "$trees/change" "$change_sha"

bench="$trees/base/BENCHMARK.json"
[ -f "$bench" ] || die "$base has no BENCHMARK.json"
jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$bench" >/dev/null ||
	die "$base's BENCHMARK.json has no workload $workload"
secs="$(jq -r .run_seconds "$bench")"
mapfile -t cmd < <(jq -r '.command[]' "$bench")

echo "A/B $workload, seed $seed, $pairs pairs of ${secs}s runs"
echo "base   $base_sha ($base)"
echo "change $change_sha ($change)"
echo "runs in $out"

# run SIDE PAIR: one benchmark run; its output goes to SIDE-PAIR.log and
# a record with its exit status and last line goes to runs.jsonl.
run() {
	local side=$1 pair=$2 log code=0 last res
	log="$out/$side-$(printf %02d "$pair")"
	(cd "$trees/$side" && "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$secs") \
		>"$log.log" 2>"$log.err" || code=$?
	last="$(tail -n 1 "$log.log")"
	res="$(jq -c 'select(type == "object" and has("correct"))' <<<"$last" 2>/dev/null)" || res=
	jq -nc --arg side "$side" --argjson pair "$pair" --argjson exit "$code" --argjson result "${res:-null}" \
		'{side: $side, pair: $pair, exit: $exit, result: $result}' >>"$out/runs.jsonl"
	echo "pair $pair $side: exit $code $(jq -c '.metrics // {} | map_values(.value)' <<<"${res:-null}")" >&2
}

for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run base "$p"
		run change "$p"
	else
		run change "$p"
		run base "$p"
	fi
done

jq -r -s --slurpfile bench "$bench" -f "$verdict" "$out/runs.jsonl" | tee "$out/verdict.txt"
