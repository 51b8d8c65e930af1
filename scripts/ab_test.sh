#!/usr/bin/env bash
# Checks ab_verdict.jq, the verdict arithmetic of scripts/ab.sh, against
# canned runs: each testdata/NAME.jsonl holds the run records of a
# 10-pair A/B over the two metrics of testdata/bench.json, and
# testdata/NAME.want the table the verdicts must match.
#
#   bash scripts/ab_test.sh
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
status=0
for runs in "$here"/testdata/*.jsonl; do
	name="$(basename "$runs" .jsonl)"
	if diff -u "$here/testdata/$name.want" \
		<(jq -r -s --slurpfile bench "$here/testdata/bench.json" -f "$here/ab_verdict.jq" "$runs"); then
		echo "ok   $name"
	else
		echo "FAIL $name"
		status=1
	fi
done
exit $status
