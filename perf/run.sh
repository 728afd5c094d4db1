#!/usr/bin/env bash
# The performance ledger's one command. Run it from anywhere; it works from
# the repository root.
#
#   perf/run.sh                                   every workload, end-to-end and traced
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run; last stdout line is the result
#   perf/run.sh --check                           1-rep pass: outcome checks + schema, < 20 s
#   perf/run.sh --compare A.jsonl B.jsonl         apply BENCHMARK.json's bounds to two result sets
#
# Options for the all-workloads mode: --seed N (default 6), --seconds S
# (default: run_seconds of BENCHMARK.json), --out FILE (default
# perf/out/results.jsonl; one line per workload and trace mode is appended).
#
# Workloads run one after another, each in its own process, never in
# parallel: peak memory is per process, and two runs at once on a 2-vCPU
# host measure each other.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(bw_fig1b_sim bw_k5_chaos_sim bw_k5_net iter_circ256_sim sweep_small_cells)
workload="" seed=6 seconds="" trace=0 out=perf/out/results.jsonl mode=all
compare=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; mode=one; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --check) mode=check; shift ;;
    --compare) mode=compare; compare=("$2" "$3"); shift 3 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# Build from source, offline, into CARGO_TARGET_DIR when the caller sets it.
# Build chatter goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-perf/target}/release"

binary_for() { if [ "$1" = 1 ]; then echo "$bin/perf_traced"; else echo "$bin/perf"; fi; }

case "$mode" in
  one)
    exec "$(binary_for "$trace")" --workload "$workload" --seed "$seed" --seconds "${seconds:-10}"
    ;;
  compare)
    exec "$bin/perf" --compare "${compare[0]}" "${compare[1]}"
    ;;
  check)
    "$bin/perf" --schema BENCHMARK.json
    for w in "${workloads[@]}"; do
      for t in 0 1; do
        "$(binary_for $t)" --workload "$w" --seed "$seed" --check | tail -n 1 >/dev/null
        echo "check ok: $w trace=$t"
      done
    done
    ;;
  all)
    seconds=${seconds:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
    mkdir -p "$(dirname "$out")"
    for w in "${workloads[@]}"; do
      for t in 0 1; do
        echo "== $w (trace $t, seed $seed, $seconds s)"
        result=$("$(binary_for $t)" --workload "$w" --seed "$seed" --seconds "$seconds" | tee /dev/stderr | tail -n 1)
        printf '{"workload": "%s", "trace": %s, "seed": %s, "result": %s}\n' "$w" "$t" "$seed" "$result" >>"$out"
      done
    done
    echo "results appended to $out"
    ;;
esac
