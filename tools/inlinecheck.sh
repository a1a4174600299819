#!/usr/bin/env bash
# Checks that every production round step inlines the model.Chunk
# cursor, so a round costs no call per node and none per message:
#
#   bash tools/inlinecheck.sh
#
# Run it from the repository root. For each step below it finds every
# call site of the cursor's Next, Inbox, Send, Broadcast and Halt, and
# requires the compiler's -gcflags=-m report to show that call inlined
# and, for Inbox, the range loop's body inlined too. The compiler
# decides silently: a method whose cost grows past the inlining budget
# (80), or an iterator that calls its loop body from two places, is
# called instead. -m reports the step as compiled where it is written;
# a copy compiled into a caller that inlines the step's constructor
# does not inline again, so the check also requires that no compiled
# function of the two packages calls a cursor method or a range-loop
# body (-gcflags=-S). It exits 1 and names each miss.
set -euo pipefail

steps=(
	"internal/algorithms/colevishkin.go cvStep"
	"internal/algorithms/random.go proposalStep"
	"internal/algorithms/floodmax.go floodMaxWordAlgo"
	"internal/model/typed.go gatherViewsTyped"
)
pkgs=(./internal/model ./internal/algorithms)

m=$(go build -gcflags=-m "${pkgs[@]}" 2>&1)
fail=0
for s in "${steps[@]}"; do
	read -r file fn <<<"$s"
	span=$(awk -v fn="$fn" 'index($0, "func " fn "(") == 1 { lo = NR } lo && /^}/ { print lo, NR; exit }' "$file")
	if [ -z "$span" ]; then
		echo "inlinecheck: no func $fn in $file"
		fail=1
		continue
	fi
	read -r lo hi <<<"$span"
	sites=$(awk -v lo="$lo" -v hi="$hi" 'NR >= lo && NR <= hi && match($0, /c\.(Next|Inbox|Send|Broadcast|Halt)[^A-Za-z]/) {
		print NR, substr($0, RSTART + 2, RLENGTH - 3)
	}' "$file")
	for want in Next Inbox Halt; do
		if ! grep -q " $want\$" <<<"$sites"; then
			echo "inlinecheck: $fn ($file) has no c.$want call"
			fail=1
		fi
	done
	while read -r line meth; do
		if ! grep -qE "^$file:$line:[0-9]+: inlining call to model\.\(\*Chunk\)\.$meth\$|^$file:$line:[0-9]+: inlining call to \(\*Chunk\)\.$meth\$" <<<"$m"; then
			echo "inlinecheck: $file:$line: c.$meth is not inlined into $fn"
			fail=1
		fi
		if [ "$meth" = Inbox ] && ! grep -qE "^$file:$line:[0-9]+: inlining call to .*-range[0-9]+\$" <<<"$m"; then
			echo "inlinecheck: $file:$line: the Inbox loop body is not inlined into $fn"
			fail=1
		fi
	done <<<"$sites"
done

calls=$(go build -gcflags=-S "${pkgs[@]}" 2>&1 |
	grep -E 'CALL[[:space:]]+(repro/internal/model\.\(\*Chunk\)\.(Next|Inbox|Send|Broadcast|Halt)|[^[:space:]]+-range[0-9]+)\(SB\)' || true)
if [ -n "$calls" ]; then
	echo "inlinecheck: compiled code calls the cursor or a range-loop body:"
	echo "$calls"
	fail=1
fi

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "inlinecheck: every production step inlines the cursor (${#steps[@]} steps)"
