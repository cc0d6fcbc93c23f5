#!/usr/bin/env bash
# The benchmark's one command: build (untimed), run, check correctness,
# print every metric by name. See README.md beside this file.
#
#   run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--out FILE]
#   run.sh --compare A.jsonl B.jsonl
#
# Without --workload all four workloads run, one process each. --traced
# runs each workload untraced and then traced. The last line of standard
# output of a single-workload run is the driver's JSON object.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# One target directory for both builds, so the kernels compile once. A
# relative CARGO_TARGET_DIR is relative to where the caller stands.
case "${CARGO_TARGET_DIR:-}" in
    "") CARGO_TARGET_DIR="$here/target" ;;
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
export CARGO_TARGET_DIR

# Build output goes to standard error: standard output is the report.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin npb --bin npbd >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release"

workload="" traced=0 pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --compare | --print-benchmark-json | --list-metrics) exec "$bin/npb-benchmark" "$@" ;;
        --traced) traced=1 ;;
        --workload) workload="${2:?--workload needs a name}"; shift ;;
        *) pass+=("$1") ;;
    esac
    shift
done

run() { "$bin/npb-benchmark" --bin-dir "$bin" --root "$root" --workload "$@"; }

if [ -n "$workload" ] && [ "$traced" = 0 ]; then
    run "$workload" "${pass[@]}"
    exit
fi
status=0
for w in ${workload:-compute_w memory_a small_s platform_s}; do
    run "$w" "${pass[@]}" || status=$?
    if [ "$traced" = 1 ]; then
        run "$w" "${pass[@]}" --trace 1 || status=$?
    fi
done
exit "$status"
