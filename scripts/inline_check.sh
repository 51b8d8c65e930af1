#!/usr/bin/env bash
# Fails unless the compiler inlines each of the VM's hot helpers:
#
#   bash scripts/inline_check.sh
#
# These run once or more per executed MiniC statement or operator: the
# lowered closures pay a statement's static price (pay), read and write
# frame cells (read, write), convert stored values (conv.do), and the
# generated operator closures (ops.go) build their results from them;
# region and watch parts check and charge an aggregate's cells at once
# (span). A call where an inlined body used to be slows every VM run. A
# helper falls out of the inliner when its body grows past the budget of
# 80 (`go build -gcflags=-m=2` prints the cost); (*Machine).read is the
# one closest to it, so keep its dependence-watcher hook a single call:
# the check that hides watch instrumentation from the watchers belongs
# in (*Machine).onRead, which the script also holds read to.
set -euo pipefail

cd "$(dirname "$0")/.."
inlined=$(go build -gcflags=-m ./internal/interp 2>&1 | sed -n 's/.*: can inline \([^ ]*\).*/\1/p')
# The inlined body of read, as the compiler prints it.
read_body=$(go build -gcflags=-m=2 ./internal/interp 2>&1 | sed -n 's/.*: can inline (\*Machine)\.read with cost [0-9]* as: //p')

helpers=(
	'(*Machine).read'
	'(*Machine).write'
	'(*Machine).pay'
	'(*Machine).span'
	'(*Machine).step'
	'(*Machine).charge'
	'(*Machine).chargeInt'
	'(*Machine).chargeLoad'
	'(*Machine).chargeStore'
	'(*Machine).countNode'
	'conv.do'
	'num'
	'fdiv'
	'IntVal'
	'FloatVal'
	'ptrVal'
	'Value.ival'
	'Value.float'
	'Value.ptr'
	'Value.Truthy'
	'boolVal'
)

# A helper that can inline may still be called: a closure that an
# inlined constructor copies into its caller does not get its own calls
# inlined (lower.go keeps such constructors out of line). So no compiled
# function of the package may call a helper either.
obj=$(mktemp -d)
trap 'rm -rf "$obj"' EXIT
go build -o "$obj/interp.a" ./internal/interp
calls=$(go tool objdump "$obj/interp.a" | awk '/^TEXT/ { fn = $2 } match($0, /R_CALL:[^ \t<]+/) { print substr($0, RSTART + 7, RLENGTH - 7), fn }')

missing=0
for h in "${helpers[@]}"; do
	if ! grep -qxF "$h" <<<"$inlined"; then
		echo "inline_check: $h is no longer inlined" >&2
		missing=1
	fi
	if callers=$(grep -F "compreuse/internal/interp.$h " <<<"$calls"); then
		echo "inline_check: $h is called, not inlined, in:" >&2
		cut -d' ' -f2 <<<"$callers" | sort -u >&2
		missing=1
	fi
done
# read hands a watched read to onRead, which alone tests the hide flag.
if ! grep -qF '(*Machine).onRead(' <<<"$read_body" || grep -qF 'hide' <<<"$read_body"; then
	echo "inline_check: (*Machine).read must call onRead and leave its hide check to it; its body is: $read_body" >&2
	missing=1
fi
onread_src=$(awk '/^func \(mc \*Machine\) onRead\(/,/^}/' internal/interp/*.go)
if ! grep -qF 'mc.hide' <<<"$onread_src"; then
	echo "inline_check: (*Machine).onRead no longer checks the hide flag" >&2
	missing=1
fi
if [ "$missing" -ne 0 ]; then
	echo "inline_check: see 'go build -gcflags=-m=2 ./internal/interp' for the costs" >&2
	exit 1
fi
echo "inline_check: all ${#helpers[@]} VM helpers inline everywhere"
