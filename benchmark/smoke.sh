#!/usr/bin/env bash
# Smoke test of the benchmark itself: one pass of the class S cells with
# the correctness gate on, then the A/A comparison of that result with
# itself. Under 20 s once built; a later change may wire it into
# scripts/ci.sh.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/out/smoke.jsonl"
mkdir -p "$here/out"
rm -f "$out"
"$here/run.sh" --workload small_s --seed 1 --seconds 1 --out "$out"
"$here/run.sh" --compare "$out" "$out"
