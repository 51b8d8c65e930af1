#!/usr/bin/env bash
# Runs the deterministic examples and diffs each one's output against
# its pinned copy in examples/testdata/<name>.out:
#
#   bash scripts/examples_check.sh            # check
#   bash scripts/examples_check.sh -update    # rewrite the pinned outputs
#
# Every example runs the simulated pipeline, so its output is the same
# on any machine. examples/memoize prints wall-clock timings and is left
# out.
set -euo pipefail

cd "$(dirname "$0")/.."
examples=(quickstart g721 gnugo mpeg2 subblocks)
update=0
if [[ "${1:-}" == "-update" ]]; then
	update=1
fi

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
pkgs=()
for name in "${examples[@]}"; do
	pkgs+=("./examples/$name")
done
go build -o "$bin/" "${pkgs[@]}"

status=0
for name in "${examples[@]}"; do
	want="examples/testdata/$name.out"
	if [[ $update == 1 ]]; then
		"$bin/$name" > "$want"
		echo "wrote $want"
	elif ! "$bin/$name" | diff -u "$want" - ; then
		echo "examples/$name: output differs from $want" >&2
		status=1
	fi
done
exit $status
