#!/usr/bin/env bash
# Regenerates every reproduced table in this directory and diffs it
# against its golden file. Exits non-zero if any output changed or any
# binary failed.
#
#   bash results/check.sh
#
# A change that alters a table must update its golden file here and say
# why in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
status=0

# check <golden name> <cargo run arguments...>
check() {
    local name=$1
    shift
    if ! cargo run --release --offline -q "$@" >"$tmp"; then
        echo "FAIL $name: exited non-zero" >&2
        status=1
    elif ! diff -u "results/$name.txt" "$tmp"; then
        echo "FAIL $name: stdout differs from results/$name.txt" >&2
        status=1
    else
        echo "ok   $name"
    fi
}

check figure1 -p dbac-bench --bin figure1
check table1 -p dbac-bench --bin table1
check table2 -p dbac-bench --bin table2
check equivalences -p dbac-bench --bin equivalences
check impossibility -p dbac-bench --bin impossibility
check convergence -p dbac-bench --bin convergence
check ablation -p dbac-bench --bin ablation
check condition_explorer_figure1b-small_8_1 --example condition_explorer -- figure1b-small 8 1

exit "$status"
