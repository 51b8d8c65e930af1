#!/usr/bin/env bash
# Fails if a function or method declared in a non-test .go file under
# internal/ is never named in the program:
#
#   bash scripts/unused_check.sh
#
# A declaration counts as used when its name appears, as a whole word,
# anywhere in the module's non-test .go files or in perfbench/'s, other
# than on the declaration's own line and on comment lines. Tests do not
# count: code that only a test calls is code no compile runs. Generators
# built with `//go:build ignore` (such as internal/interp/gen_ops.go) are
# not part of the program and are skipped. The check goes by name alone,
# so a function shares its use with every other function, method or
# field of the same name; it catches names nothing mentions, not every
# dead method.
#
# scripts/unused_allow.txt lists the declarations kept on purpose, one
# `path name  # reason` per line (a test's reference implementation, or a
# method the standard library calls through an interface). An entry that
# names no declaration fails the check, so the list cannot go stale
# unnoticed.
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/unused_allow.txt

files=()
while IFS= read -r f; do
	case $f in
	*_test.go | */testdata/*) continue ;;
	esac
	if grep -q '^//go:build ignore' "$f"; then
		continue
	fi
	files+=("$f")
done < <(git ls-files --cached --others --exclude-standard '*.go' | sort -u)

# Prints "path name" for every declaration nothing else names, then
# "decl path name" for every declaration (for checking the allowlist).
report=$(awk '
	/^[ \t]*\/\// { next }
	{
		n = split($0, tok, /[^A-Za-z0-9_]+/)
		for (i = 1; i <= n; i++) {
			if (tok[i] != "") {
				count[tok[i]]++
			}
		}
	}
	FILENAME ~ /^internal\// && /^func / {
		rest = substr($0, 6)
		if (substr(rest, 1, 1) == "(") {
			rest = substr(rest, index(rest, ")") + 1)
			sub(/^ +/, "", rest)
		}
		if (!match(rest, /^[A-Za-z_][A-Za-z0-9_]*/)) {
			next
		}
		name = substr(rest, 1, RLENGTH)
		if (name == "init" || name == "main" || name == "_") {
			next
		}
		own = 0
		for (i = 1; i <= n; i++) {
			if (tok[i] == name) {
				own++
			}
		}
		key = FILENAME " " name
		decl[key] = name
		self[key] += own
	}
	END {
		for (key in decl) {
			print "decl " key
			if (count[decl[key]] - self[key] == 0) {
				print key
			}
		}
	}
' "${files[@]}")

declared=$(sed -n 's/^decl //p' <<<"$report" | sort)
unused=$(grep -v '^decl ' <<<"$report" | sort || true)
allowed=$(sed -e 's/#.*//' -e 's/[ \t]*$//' "$allow" | awk 'NF { print $1, $2 }' | sort)

status=0
if stale=$(comm -23 <(echo "$allowed") <(echo "$declared")) && [ -n "$stale" ]; then
	echo "unused_check: $allow names functions that are not declared:" >&2
	sed 's/^/  /' <<<"$stale" >&2
	status=1
fi
if dead=$(comm -23 <(echo "$unused") <(echo "$allowed")) && [ -n "$dead" ]; then
	echo "unused_check: declared under internal/ but never named outside tests:" >&2
	sed 's/^/  /' <<<"$dead" >&2
	echo "unused_check: delete them, or list them in $allow with the reason they stay" >&2
	status=1
fi
if [ "$status" -eq 0 ]; then
	echo "unused_check: every function under internal/ is named by the program ($(wc -l <<<"$declared") declarations, $(grep -c . <<<"$allowed") allowed)"
fi
exit "$status"
