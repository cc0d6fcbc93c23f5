#!/usr/bin/env bash
# Offline CI gate: what only a shell can check. Every result check (the
# pinned signatures, guarded replays, threads against procs, the sched
# and trace shapes) is a test that `cargo test -q` runs; the golden
# table is `tests/golden.rs`. Hermetic by construction: the workspace
# has no registry dependencies, so every step works without network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --check

echo "== unsafe contracts =="
# Every `unsafe {` block under crates/, src/ and tests/ states its
# contract: `// SAFETY:` on the same line or within the three above it.
find crates src tests -name '*.rs' -print0 | sort -z | xargs -0 awk '
     FNR == 1 { delete seen }
     /unsafe \{/ && !/^[[:space:]]*\/\// {
         ok = /SAFETY:/
         for (k = 1; k <= 3; k++) if (seen[FNR - k] ~ /SAFETY:/) ok = 1
         if (!ok) { print FILENAME ":" FNR ": unsafe block without // SAFETY:"; bad = 1 }
     }
     { seen[FNR] = $0 }
     END { exit bad }'

echo "== one benchmark =="
# benchmark/ is the one measurement system and BENCHMARK.json its one
# declaration: a committed BENCH_*.json snapshot beside it fails the gate.
stray="$(git ls-files 'BENCH_*.json')"
if [ -n "$stray" ]; then
    echo "committed BENCH_*.json files (measure through benchmark/ instead):" >&2
    echo "$stray" >&2
    exit 1
fi

echo "== one durable log (npb_core::log), one way to sleep (the runtime's wait::Gate), one checkpoint (npb_core::ckpt), one measurement system (benchmark/), one run description (RunSpec), one complex allocation (npb_ft::complex::zeroed) =="
grep -rnE --include='*.rs' 'append\(true\)|append_record' crates src | grep -v '^crates/core/src/log.rs:' \
    && { echo "a durable append outside crates/core/src/log.rs (listed above)" >&2; exit 1; }
grep -rn --include='*.rs' Condvar crates/runtime \
    && { echo "a Condvar in crates/runtime: sleep on wait::Gate instead (listed above)" >&2; exit 1; }
# A two-bank commit flips a word after writing a bank: only the image in
# crates/core/src/ckpt.rs does; a bank store only holds the words.
grep -rnE --include='*.rs' '\.set_flip\(|fn which\(|CheckpointStore|CkptSlot|save_faulted' crates src \
    | grep -v '^crates/core/src/ckpt.rs:' \
    && { echo "a two-bank commit outside crates/core/src/ckpt.rs (listed above)" >&2; exit 1; }
# npb-attack loads the daemon and counts replies; benchmark/ measures it.
# A latency histogram or a saturation ramp in the service or the binaries
# is a second measurement system. ("saturation" alone is a fair word in
# crates/core and crates/runtime, hence the scope.)
grep -rnE --include='*.rs' 'Histogram|percentile_us|saturation_clients|"--ramp"' crates/service src \
    && { echo "a second measurement system outside benchmark/ (listed above)" >&2; exit 1; }
# A run flag is spelled once: `RunSpec::to_argv` writes it and
# `RunSpec::parse_flag` reads it, in crates/runtime/src/spec.rs. Test
# modules (from a file's first top-level `#[cfg(test)]` on) drive the
# binaries and may spell them.
find crates src -name '*.rs' ! -path crates/runtime/src/spec.rs -print0 | sort -z | xargs -0 awk '
     FNR == 1 { live = 1 }
     /^#\[cfg\(test\)\]/ { live = 0 }
     live && /"--(backend|sched|inject|spin-us|checkpoint-every)"/ { print FILENAME ":" FNR ": " $0; bad = 1 }
     END { exit bad }' \
    || { echo "a run flag spelled outside crates/runtime/src/spec.rs (listed above)" >&2; exit 1; }
# A complex field is allocated zeroed, never filled element by element:
# `vec![C64::ZERO; n]` writes every page on the calling thread, where
# `complex::zeroed` leaves each to the rank that first fills it. Test
# modules may build small fields either way.
find crates -name '*.rs' -print0 | sort -z | xargs -0 awk '
     FNR == 1 { live = 1 }
     /^#\[cfg\(test\)\]/ { live = 0 }
     live && /vec!\[C64::ZERO;/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0; bad = 1 }
     END { exit bad }' \
    || { echo "a complex field filled element by element (listed above): use complex::zeroed" >&2; exit 1; }

echo "== tier-1: build =="
cargo build --release

echo "== codegen guard (lane tier) =="
# Every `Lane` helper must inline into the AVX2-enabled entry
# (`npb_core::lane`). An intrinsic that survives as a symbol means some
# helper on the lane path was compiled out of line, without AVX2, and
# calls each `_mm256_*` instead of issuing it.
if nm -C target/release/npb | grep core_arch | grep -v _xgetbv; then
    echo "out-of-line core::arch intrinsics in target/release/npb (listed above)" >&2
    exit 1
fi

echo "== tier-1: tests =="
cargo test --workspace -q

echo "== golden table and kernel oracles, as the release build vectorizes them =="
# The tier-1 tests above run the dev profile (opt-level 2), which
# vectorizes fewer loops than release: MG's `resid_row` and `psinv_row`
# compile to scalar code there and to packed code here. The bit-for-bit
# claims are about the shipped code, so pin them on the release build too
# (IS's four-lane key generator and bucketed scatter, CG's row-by-row
# `makea`, LU's row `rhs` and diagonal-lane sweeps, and EP's four-pass
# `batch`, against their oracles among them).
cargo test --release --test golden -q
cargo test --release -p npb-mg -p npb-is -p npb-cg -p npb-runtime -p npb-cfd-common -p npb-ft \
    -p npb-bt -p npb-sp -p npb-lu -p npb-ep -q

work="$(mktemp -d -t npb-ci.XXXXXX)"
svc_pid="" hh_pid=""
trap '[ -z "$svc_pid" ] || kill "$svc_pid" 2>/dev/null || true
      [ -z "$hh_pid" ] || kill "$hh_pid" 2>/dev/null || true
      rm -rf "$work"' EXIT

echo "== chaos smoke (suite supervisor) =="
# A hang-injected cell wedges a rank, which in-process can only end in
# watchdog death; the supervisor must deadline-kill the child, retry
# clean, and end verified (exit 0).
manifest="$work/suite.jsonl"
target/release/npb-suite ep --class S --threads 2 \
    --inject hang:1 --deadline-ms 2000 --retries 1 --backoff-ms 0 \
    --manifest "$manifest"
grep -q '"outcome":"deadline-killed"' "$manifest"
grep -q '"event":"cell".*"outcome":"verified"' "$manifest"
# The supervisor waits on a child, it does not sample it: the IS.S and
# MG.S children take 3-4 ms of wall, so one of the two attempt records
# must carry a one-digit `elapsed_ms` (the record's last field). Seen
# only at a 10 ms sample, no attempt could read under 10.
target/release/npb-suite is,mg --class S --threads 0 --manifest "$manifest" >/dev/null
grep -Eq '"event":"attempt".*"elapsed_ms":[0-9]\}' "$manifest"

echo "== service smoke (npbd daemon) =="
# One daemon lifecycle end to end: cold submit executes and verifies;
# the identical resubmit is a cache hit; a hanging job is deadline-killed
# under its per-job policy and retried clean (kill journaled); an
# oversized job is refused with an explicit reason; drain seals the
# journal and the daemon exits 0.
target/release/npbd --socket "$work/npb.sock" --journal "$work/journal.jsonl" \
    --workers 1 --queue-cost 8 --backoff-ms 0 &
svc_pid=$!
once() { target/release/npb-attack --socket "$work/npb.sock" --once "$1" || true; }
out="$(once '{"op":"submit","bench":"EP","class":"S","threads":2,"seed":7}')"
echo "$out" | grep -q '"disposition":"verified"'
echo "$out" | grep -q '"from_cache":false'
out="$(once '{"op":"submit","bench":"EP","class":"S","threads":2,"seed":7}')"
echo "$out" | grep -q '"from_cache":true'
out="$(once '{"op":"submit","bench":"EP","class":"S","threads":2,"seed":8,"inject":"hang:1","deadline_ms":2000,"retries":1}')"
echo "$out" | grep -q '"disposition":"verified"'
echo "$out" | grep -q '"kills":1'
out="$(once '{"op":"submit","bench":"EP","class":"C","threads":2}')"
echo "$out" | grep -q '"reason":"cost-exceeds-capacity"'
out="$(once '{"op":"drain"}')"
echo "$out" | grep -q '"status":"draining"'
wait "$svc_pid"
svc_pid=""
grep -q '"ev":"done".*"kills":1' "$work/journal.jsonl"
grep -q '"ev":"shutdown"' "$work/journal.jsonl"

echo "== hostile-host smoke (environmental faults) =="
# (a) Deterministic ENOSPC injection on the suite manifest: the sweep
# dies mid-run with a structured io-degraded event (exit 1, never a
# panic), at most the in-flight record is lost, and a later --resume
# *without* injection completes exactly the missing cells (exit 0).
hh_manifest="$work/hh.jsonl"
hh_out=0
target/release/npb-suite ep,is --class S --threads 1,2 --backoff-ms 0 \
    --manifest "$hh_manifest" --io-inject enospc:1 2>"$work/suite.err" || hh_out=$?
test "$hh_out" -eq 1
grep -q '"ev":"io-degraded".*"surface":"manifest"' "$work/suite.err"
test "$(grep -c '"event":"cell"' "$hh_manifest")" -lt 4
target/release/npb-suite ep,is --class S --threads 1,2 --backoff-ms 0 \
    --resume "$hh_manifest"
test "$(grep -c '"event":"cell"' "$hh_manifest")" -eq 4

# (b) npbd under sticky fsync-failure injection on its journal: the
# first tripped record seals the daemon — new submits get a structured
# rejection, owed work is finished, and the drained daemon exits 0 on
# its own (a failing disk never turns into a panic or a hang).
mkdir "$work/hh"
target/release/npbd --socket "$work/hh/npb.sock" --journal "$work/hh/journal.jsonl" \
    --workers 1 --queue-cost 8 --backoff-ms 0 --npb-bin target/release/npb \
    --io-inject fsync-fail:7 2>"$work/npbd.err" &
hh_pid=$!
for seed in $(seq 0 31); do
    out="$(target/release/npb-attack --socket "$work/hh/npb.sock" \
        --once "{\"op\":\"submit\",\"bench\":\"EP\",\"class\":\"S\",\"threads\":2,\"seed\":$seed}" \
        2>/dev/null || true)"
    # A structured rejection or a gone socket both mean the daemon
    # sealed (it exits unprompted once owed work is drained).
    if echo "$out" | grep -q '"status":"rejected"'; then break; fi
    [ -S "$work/hh/npb.sock" ] || break
done
wait "$hh_pid"    # seal implies drain: clean exit 0, unprompted
hh_pid=""
grep -q 'sealed' "$work/npbd.err"

# (c) Resource-exhaustion containment: a supervised cell under a memory
# cap too small for class A aborts in the child (RLIMIT_AS), is
# journaled as `oom-killed`, and the class-degradation ladder re-runs
# it at smaller classes (W or S — the exact landing class depends on
# the allocator's address-space overhead) until it fits: exit 0,
# verified at a degraded class, every kill journaled.
oom_manifest="$work/oom.jsonl"
target/release/npb-suite ft --class A --threads 2 --mem-limit-mb 150 \
    --retries 3 --backoff-ms 0 --manifest "$oom_manifest" 2>"$work/oom.err"
grep -q '"outcome":"oom-killed"' "$oom_manifest"
grep -q '"outcome":"verified"' "$oom_manifest"
grep -q 'degrading class' "$work/oom.err"
grep -Eq '"final_class":"(W|S)"' "$oom_manifest"

echo "== benchmark smoke (public API pinned by benchmark/) =="
# benchmark/ is the repo's one measurement system, a workspace of its own
# that drives only public functions (Team, Par, Sched, run_par, the
# kernels' run/phase functions, run_cell, npbd): building it and running
# one class S pass plus an A/A compare fails the gate when a change
# breaks that surface.
bash benchmark/smoke.sh

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
