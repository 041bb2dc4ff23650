#!/usr/bin/env bash
# same_output.sh [base-ref] — is this tree's deterministic output byte-identical
# to base-ref's (default HEAD~1)?
#
# Builds synergy-experiments and synergy-scenario at both commits, runs
#   synergy-experiments -run all -seed 1 -workers 1
#   synergy-scenario -dir specs -mode sim -json
# on each from its own tree, and cmp's the two pairs of outputs. Prints which
# differ and exits non-zero if any does. The gate of every refactor that must
# not move a table, a figure or a simulated scenario report; not a check.sh
# stage, because behaviour-changing PRs legitimately differ.
#
# The base tree is a `git archive` export into a temporary directory (under
# $TMPDIR), removed on exit: no worktree to register or prune, and the working
# tree — uncommitted changes included — is what it is compared against.
set -euo pipefail

cd "$(dirname "$0")/.."
base=${1:-HEAD~1}
base_sha=$(git rev-parse --verify --quiet "$base^{commit}") || {
	echo "same_output: unknown base ref '$base'" >&2
	exit 2
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/bin-base" "$tmp/bin-head"
git archive "$base_sha" | tar -x -C "$tmp/base"

go -C "$tmp/base" build -o "$tmp/bin-base/" ./cmd/synergy-experiments ./cmd/synergy-scenario
go build -o "$tmp/bin-head/" ./cmd/synergy-experiments ./cmd/synergy-scenario

# run <side> <tree>: the two outputs of one commit, produced from its own tree
# (its own specs/). A non-zero exit (a failed expectation, say) is part of
# the output being compared, not this script's failure.
run() {
	(
		cd "$2"
		"$tmp/bin-$1/synergy-experiments" -run all -seed 1 -workers 1 >"$tmp/$1-experiments.txt" 2>&1 || true
		"$tmp/bin-$1/synergy-scenario" -dir specs -mode sim -json >"$tmp/$1-scenarios.json" 2>&1 || true
	)
}
run base "$tmp/base"
run head "$PWD"

status=0
for out in experiments.txt scenarios.json; do
	if cmp -s "$tmp/base-$out" "$tmp/head-$out"; then
		echo "same    $out ($(wc -c <"$tmp/head-$out") bytes)"
	else
		echo "DIFFER  $out: $(cmp "$tmp/base-$out" "$tmp/head-$out" 2>&1 || true)"
		status=1
	fi
done
if [ "$status" -eq 0 ]; then
	echo "same_output: byte-identical to ${base_sha:0:7}"
else
	echo "same_output: output differs from ${base_sha:0:7}" >&2
fi
exit "$status"
