#!/usr/bin/env bash
# Offline CI gate: format, build, full test suite, chaos smokes, lints.
# Hermetic by construction — the workspace has no registry dependencies,
# so every step below works without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --check

echo "== unsafe contracts =="
# Every `unsafe {` block in the procs glue, the EP/IS/CG/BT/SP/LU/FT
# kernels, the shared CFD code and npb-core states its contract:
# `// SAFETY:` on the same line or within the three lines above it.
awk 'FNR == 1 { delete seen }
     /unsafe \{/ && !/^[[:space:]]*\/\// {
         ok = /SAFETY:/
         for (k = 1; k <= 3; k++) if (seen[FNR - k] ~ /SAFETY:/) ok = 1
         if (!ok) { print FILENAME ":" FNR ": unsafe block without // SAFETY:"; bad = 1 }
     }
     { seen[FNR] = $0 }
     END { exit bad }' src/procs/*.rs crates/{ep,is,cg,bt,sp,lu,ft,cfd-common,core}/src/*.rs

echo "== one benchmark =="
# benchmark/ is the one measurement system and BENCHMARK.json its one
# declaration: a committed BENCH_*.json snapshot beside it fails the gate.
stray="$(git ls-files 'BENCH_*.json')"
if [ -n "$stray" ]; then
    echo "committed BENCH_*.json files (measure through benchmark/ instead):" >&2
    echo "$stray" >&2
    exit 1
fi

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

echo "== golden signatures (generator sequence and lane tier, CLI surface) =="
# The five benchmarks fed by the NPB generator must reproduce, through
# the shipped binary, the serial class S signatures recorded when
# randlc/vranlc were the double-precision split-multiply — and EP must
# verify one class up, where a wrong seed jump cannot hide. BT must
# reproduce the signatures recorded with scalar sweeps, whichever lane
# width this host dispatches to — class W too, where a line has full
# lane groups and a short last one. BT and SP must reproduce the ones
# recorded with the per-point right-hand side: class W rows are a vector
# body plus a tail, and two ranks split the planes of both of its phases.
for golden in ep:c0aed46ec67e150c is:6bbde6d3f0645b95 cg:54cf2678bada079b \
    mg:53b9c899b857c11d ft:b830222e10844859 bt:bf42440eb4417b06 \
    sp:7df6ccd34715cf27; do
    out="$(target/release/npb "${golden%%:*}" S --json)"
    echo "$out" | grep -q "\"result_sig\":\"${golden##*:}\""
done
target/release/npb ep --class W
out="$(target/release/npb bt W --json)"
echo "$out" | grep -q '"result_sig":"5e10193d54224eb5"'
out="$(target/release/npb bt W --threads 2 --json)"
echo "$out" | grep -q '"result_sig":"5e10193d54224eb5"'
# SP one class up, recorded with the scalar per-line sweeps and the
# transforms as passes of their own: a class W plane's 34 interior lines
# are eight full lane groups and a short one of two, and SP has no
# cross-rank reduction, so two ranks must reproduce the serial bits.
out="$(target/release/npb sp W --json)"
echo "$out" | grep -q '"result_sig":"e1fcdbc51df117a1"'
out="$(target/release/npb sp W --threads 2 --json)"
echo "$out" | grep -q '"result_sig":"e1fcdbc51df117a1"'
# MG one class up and one width out, recorded with the per-point operators:
# class W rows are a vector body plus a tail at every level, and two ranks
# differ from serial in the last bit by design (rank-ordered norm partials).
out="$(target/release/npb mg W --json)"
echo "$out" | grep -q '"result_sig":"538914f57119183d"'
out="$(target/release/npb mg W --threads 2 --json)"
echo "$out" | grep -q '"result_sig":"538914f5711918c4"'

# FT one class up and one width out, recorded with the per-pencil
# transform: class W is non-cubic (128 x 128 x 32), and FT has no
# cross-rank reduction, so two ranks must reproduce the serial bits.
out="$(target/release/npb ft W --json)"
echo "$out" | grep -q '"result_sig":"f3f4c1c52f452c45"'
out="$(target/release/npb ft W --threads 2 --json)"
echo "$out" | grep -q '"result_sig":"f3f4c1c52f452c45"'

echo "== row, block and line kernels vs their oracles, as the release build vectorizes them =="
# The tier-1 run above is a debug build, where no loop is vectorized; the
# bit-for-bit claim is about the optimized code, so run it there too.
cargo test --release -p npb-mg -p npb-runtime -p npb-cfd-common -p npb-ft \
    -p npb-bt -p npb-sp -q

echo "== chaos smoke (in-process) =="
# Injected worker panic on the first attempt, clean retry must verify.
cargo run --release --bin npb -- ep --class S --threads 4 --inject panic:1 --retries 1

echo "== chaos smoke (suite supervisor) =="
# A hang-injected cell wedges a rank, which in-process can only end in
# watchdog death; the supervisor must deadline-kill the child, retry
# clean, and end verified (exit 0).
manifest="$(mktemp -t npb-suite-ci.XXXXXX.jsonl)"
trap 'rm -f "$manifest"' EXIT
cargo run --release --bin npb-suite -- ep --class S --threads 2 \
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

echo "== sdc smoke (in-computation guard) =="
# An exponent bit flip lands in the adversarial tail of CG's and LU's
# outer loops; the SDC guard must detect it against the rolling
# checksum, roll back to the last checkpoint, replay, verify (exit 0),
# and report the recovery in the JSON record.
for bench in cg lu; do
    sdc_out="$(cargo run --release --bin npb -- \
        $bench S --sdc-guard --checkpoint-every=2 --inject bitflip:42 --json)"
    echo "$sdc_out" | grep -q '"verified":"success"'
    recoveries="$(echo "$sdc_out" | grep -o '"recoveries":[0-9]*' | cut -d: -f2)"
    test "${recoveries:-0}" -ge 1
done

echo "== sched smoke (adaptive loop scheduling) =="
# Guided and feedback scheduling must verify and match the static
# policy's result signature bit for bit (CG: schedulable elementwise
# loops + pinned reductions; LU: feedback re-splits the pipelined
# wavefront, guided degrades to static there by design).
for bench in cg lu; do
    static_out="$(cargo run --release --bin npb -- $bench --class S --threads 4 --sched static --json)"
    static_sig="$(echo "$static_out" | grep -o '"result_sig":"[^"]*"')"
    test -n "$static_sig"
    for policy in guided feedback; do
        out="$(cargo run --release --bin npb -- $bench --class S --threads 4 --sched $policy --json)"
        echo "$out" | grep -q '"verified":"success"'
        sig="$(echo "$out" | grep -o '"result_sig":"[^"]*"')"
        test "$sig" = "$static_sig"
    done
done
# Dynamic scheduling is a threads-backend feature: procs must refuse.
sched_rc=0
cargo run --release --bin npb -- ep --class S --threads 2 \
    --backend procs --sched guided 2>/dev/null || sched_rc=$?
test "$sched_rc" -ne 0

echo "== trace smoke (driver profile) =="
# A traced CG run must verify (exit 0) and leave a profile naming every
# CG phase; the folded export must be flamegraph-grammar lines.
trace_json="$(mktemp -t npb-trace-ci.XXXXXX.json)"
trace_folded="$(mktemp -t npb-trace-ci.XXXXXX.folded)"
trace_manifest="$(mktemp -t npb-trace-suite-ci.XXXXXX.jsonl)"
trap 'rm -f "$manifest" "$trace_json" "$trace_folded" "$trace_manifest"' EXIT
# Capture instead of piping into grep -q: an early-exiting reader would
# SIGPIPE the still-printing binary and pipefail would abort the gate.
trace_out="$(cargo run --release --bin npb -- cg --class S --trace "$trace_json" --json)"
echo "$trace_out" | grep -q '"regions":\['
grep -q '"name":"conj_grad"' "$trace_json"
grep -q '"name":"power_step"' "$trace_json"
cargo run --release --bin npb -- cg --class S --threads 2 \
    --trace "$trace_folded" --trace-format folded
grep -Eq '^conj_grad;compute [0-9]+$' "$trace_folded"

echo "== trace smoke (suite scalability table) =="
# One traced cell through the supervisor: the per-region profile must
# ride the child's JSON record into the manifest, and the suite must
# print the paper-style scalability table from those aggregates.
suite_out="$(cargo run --release --bin npb-suite -- cg --class S --threads 2 \
    --trace --manifest "$trace_manifest")"
echo "$suite_out" | grep -q 'speedup'
grep -q '"regions":\[' "$trace_manifest"

echo "== service smoke (npbd daemon) =="
# One daemon lifecycle end to end, offline, against the release
# binaries built above: cold submit executes and verifies; the
# identical resubmit is a cache hit; a hanging job is deadline-killed
# under its per-job policy and retried clean (kill journaled); an
# oversized job is refused with an explicit reason; drain seals the
# journal and the daemon exits 0.
svc_dir="$(mktemp -d -t npbd-ci.XXXXXX)"
svc_pid=""
trap '[ -z "${svc_pid:-}" ] || kill "$svc_pid" 2>/dev/null || true; rm -rf "$svc_dir"; rm -f "$manifest" "$trace_json" "$trace_folded" "$trace_manifest"' EXIT
target/release/npbd --socket "$svc_dir/npb.sock" --journal "$svc_dir/journal.jsonl" \
    --workers 1 --queue-cost 8 --backoff-ms 0 &
svc_pid=$!
once() { target/release/npb-attack --socket "$svc_dir/npb.sock" --once "$1" || true; }
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
grep -q '"ev":"done".*"kills":1' "$svc_dir/journal.jsonl"
grep -q '"ev":"shutdown"' "$svc_dir/journal.jsonl"

echo "== hostile-host smoke (environmental faults, Level 6) =="
# (a) Deterministic ENOSPC injection on the suite manifest: the sweep
# dies mid-run with a structured io-degraded event (exit 1, never a
# panic), at most the in-flight record is lost, and a later --resume
# *without* injection completes exactly the missing cells (exit 0).
hh_manifest="$(mktemp -t npb-hh-ci.XXXXXX.jsonl)"
hh_dir="$(mktemp -d -t npbd-hh-ci.XXXXXX)"
oom_manifest="$(mktemp -t npb-oom-ci.XXXXXX.jsonl)"
trap '[ -z "${svc_pid:-}" ] || kill "$svc_pid" 2>/dev/null || true; [ -z "${hh_pid:-}" ] || kill "$hh_pid" 2>/dev/null || true; rm -rf "$svc_dir" "$hh_dir"; rm -f "$manifest" "$trace_json" "$trace_folded" "$trace_manifest" "$hh_manifest" "$oom_manifest"' EXIT
hh_out=0
target/release/npb-suite ep,is --class S --threads 1,2 --backoff-ms 0 \
    --manifest "$hh_manifest" --io-inject enospc:1 2>"$hh_dir/suite.err" || hh_out=$?
test "$hh_out" -eq 1
grep -q '"ev":"io-degraded".*"surface":"manifest"' "$hh_dir/suite.err"
landed="$(grep -c '"event":"cell"' "$hh_manifest")"
test "$landed" -lt 4
target/release/npb-suite ep,is --class S --threads 1,2 --backoff-ms 0 \
    --resume "$hh_manifest"
test "$(grep -c '"event":"cell"' "$hh_manifest")" -eq 4

# (b) npbd under sticky fsync-failure injection on its journal: the
# first tripped record seals the daemon — new submits get a structured
# rejection, owed work is finished, and the drained daemon exits 0 on
# its own (a failing disk never turns into a panic or a hang).
target/release/npbd --socket "$hh_dir/npb.sock" --journal "$hh_dir/journal.jsonl" \
    --workers 1 --queue-cost 8 --backoff-ms 0 --npb-bin target/release/npb \
    --io-inject fsync-fail:7 2>"$hh_dir/npbd.err" &
hh_pid=$!
for seed in $(seq 0 31); do
    out="$(target/release/npb-attack --socket "$hh_dir/npb.sock" \
        --once "{\"op\":\"submit\",\"bench\":\"EP\",\"class\":\"S\",\"threads\":2,\"seed\":$seed}" \
        2>/dev/null || true)"
    # A structured rejection or a gone socket both mean the daemon
    # sealed (it exits unprompted once owed work is drained).
    if echo "$out" | grep -q '"status":"rejected"'; then break; fi
    [ -S "$hh_dir/npb.sock" ] || break
done
wait "$hh_pid"    # seal implies drain: clean exit 0, unprompted
hh_pid=""
grep -q 'sealed' "$hh_dir/npbd.err"

# (c) Resource-exhaustion containment: a supervised cell under a memory
# cap too small for class A aborts in the child (RLIMIT_AS), is
# journaled as `oom-killed`, and the class-degradation ladder re-runs
# it at smaller classes (W or S — the exact landing class depends on
# the allocator's address-space overhead) until it fits: exit 0,
# verified at a degraded class, every kill journaled.
target/release/npb-suite ft --class A --threads 2 --mem-limit-mb 150 \
    --retries 3 --backoff-ms 0 --manifest "$oom_manifest" 2>"$hh_dir/oom.err"
grep -q '"outcome":"oom-killed"' "$oom_manifest"
grep -q '"outcome":"verified"' "$oom_manifest"
grep -q 'degrading class' "$hh_dir/oom.err"
grep -Eq '"final_class":"(W|S)"' "$oom_manifest"

echo "== procs backend smoke (process-sharded execution) =="
# The process-sharded backend must agree with the threads backend to
# the last bit at equal width, and an injected rank panic must be
# contained by a checkpoint restore (recoveries journaled, exit 0).
# Width 3 splits every partition unevenly.
for bench in ep is cg; do
    threads_out="$(target/release/npb $bench --class S --backend threads --threads 3 --json)"
    procs_out="$(target/release/npb $bench --class S --backend procs --threads 3 --json)"
    threads_sig="$(echo "$threads_out" | grep -o '"result_sig":"[^"]*"')"
    procs_sig="$(echo "$procs_out" | grep -o '"result_sig":"[^"]*"')"
    test -n "$threads_sig"
    test "$threads_sig" = "$procs_sig"
done
crash_out="$(target/release/npb cg --class S --backend procs --threads 4 --inject panic --json)"
echo "$crash_out" | grep -q '"verified":"success"'
recoveries="$(echo "$crash_out" | grep -o '"recoveries":[0-9]*' | cut -d: -f2)"
test "${recoveries:-0}" -ge 1

echo "== benchmark smoke (public API pinned by benchmark/) =="
# benchmark/ is the repo's one measurement system, a workspace of its own
# that drives only public functions (Team, Par, Sched, run_par, the
# kernels' run/phase functions, run_cell, npbd): building it and running
# one class S pass plus an A/A compare fails the gate when a change
# breaks that surface.
bash benchmark/smoke.sh

echo "== spin-vs-park equivalence (explicit park path) =="
# Pin the paper's pure wait/notify path via the environment so it never
# bit-rots: the full consistency suite must pass with spinning disabled,
# and the equivalence test itself compares park vs spin bitwise.
NPB_SPIN_US=0 cargo test --release --test thread_consistency -q

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
