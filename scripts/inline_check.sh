#!/usr/bin/env bash
# Fails unless the compiler inlines each of the VM's hot helpers:
#
#   bash scripts/inline_check.sh
#
# These run once or more per executed MiniC statement or operator, and a
# call where an inlined body used to be slows every VM run. A helper
# falls out of the inliner when its body grows past the budget of 80
# (`go build -gcflags=-m=2` prints the cost); (*Machine).read is the one
# closest to it, so keep its dependence-watcher hook a single call.
set -euo pipefail

cd "$(dirname "$0")/.."
inlined=$(go build -gcflags=-m ./internal/interp 2>&1 | sed -n 's/.*: can inline \([^ ]*\).*/\1/p')

helpers=(
	'(*Machine).read'
	'(*Machine).step'
	'(*Machine).charge'
	'(*Machine).chargeInt'
	'(*Machine).chargeLoad'
	'(*Machine).chargeStore'
	'(*Machine).chargeLocal'
	'(*Machine).chargeBranch'
	'(*Machine).countNode'
	'IntVal'
	'Value.ival'
	'Value.Truthy'
	'boolVal'
)

missing=0
for h in "${helpers[@]}"; do
	grep -qxF "$h" <<<"$inlined" && continue
	echo "inline_check: $h is no longer inlined" >&2
	missing=1
done
if [ "$missing" -ne 0 ]; then
	echo "inline_check: see 'go build -gcflags=-m=2 ./internal/interp' for the costs" >&2
	exit 1
fi
echo "inline_check: all ${#helpers[@]} VM helpers inline"
