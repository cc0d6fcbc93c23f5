//! Chaos suite: deterministic fault injection against the runtime's
//! failure model (ISSUE acceptance criteria).
//!
//! Every test that could deadlock on a regression runs under
//! [`guarded`], a watchdog thread that fails the test instead of
//! hanging the suite. The driver-level tests exercise the real `npb`
//! binary via `CARGO_BIN_EXE_npb` subprocesses; nothing here touches
//! the network.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use npb::{
    try_run_benchmark, Class, FaultKind, FaultPlan, GuardConfig, RegionError, RunError, RunOptions,
    Sched, Style, Team, Verified,
};
use npb_core::json::Json;

/// Run `f` on a helper thread; fail (instead of deadlocking the whole
/// suite) if it does not complete within `secs`.
fn guarded<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs)).expect("watchdog: guarded section deadlocked")
}

#[test]
fn injected_panic_mid_barrier_is_reported_and_team_recovers_at_full_width() {
    guarded(60, || {
        let team = Team::new(4);
        let plan = FaultPlan::new(FaultKind::Panic, 1);
        let victim = plan.victim(4);
        plan.arm(Some(&team)).unwrap();

        // The victim unwinds at region entry while its siblings wait in
        // the barrier; poisoning must release them instead of hanging.
        let err =
            team.try_exec(|p| p.barrier()).expect_err("armed panic fault must fail the region");
        match err {
            RegionError::Panicked { tids } => {
                assert_eq!(tids, vec![victim], "only the victim is a primary panic")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }

        // The fault was one-shot and the team healed: a subsequent
        // region runs clean at full width.
        assert_eq!(team.size(), 4, "default policy respawns to full width");
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        team.exec(move |p| {
            ran2.fetch_add(1, Ordering::SeqCst);
            p.barrier();
        });
        assert_eq!(ran.load(Ordering::SeqCst), 4, "all four ranks ran the next region");
    });
}

#[test]
fn injected_panic_mid_barrier_poisons_spinning_waiters() {
    // Same failure as above, but with an effectively unbounded spin
    // budget: the victim's siblings are burning the lock-free spin phase
    // of the barrier, not asleep on its futex gate, when poisoning must
    // reach them.
    guarded(60, || {
        let team = Team::new(4);
        team.set_spin_us(200_000);
        let plan = FaultPlan::new(FaultKind::Panic, 1);
        let victim = plan.victim(4);
        plan.arm(Some(&team)).unwrap();
        let err =
            team.try_exec(|p| p.barrier()).expect_err("armed panic fault must fail the region");
        match err {
            RegionError::Panicked { tids } => {
                assert_eq!(tids, vec![victim], "only the victim is a primary panic")
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Healed and still spinning: the next region runs clean.
        assert_eq!(team.size(), 4, "default policy respawns to full width");
        team.exec(|p| p.barrier());
    });
}

#[test]
fn injected_delay_is_absorbed_without_deadlock() {
    guarded(60, || {
        let team = Team::new(3);
        let plan = FaultPlan::new(FaultKind::Delay, 2);
        plan.arm(Some(&team)).unwrap();
        // The delay defers until the timed section starts; open it the
        // way a benchmark does so the fault actually fires here.
        npb_core::trace::reset();
        // A straggler sleeping before the barrier is legal behaviour,
        // not a failure: the region completes normally.
        team.try_exec(|p| p.barrier()).expect("a delayed rank is not an error");
        team.try_exec(|p| p.barrier()).expect("team is reusable after the delay");
    });
}

#[test]
fn barrier_panic_regression_does_not_deadlock_waiters() {
    // Regression for the pre-poisoning deadlock: rank 0 panics before
    // the barrier while every other rank is already waiting in it.
    guarded(60, || {
        let team = Team::new(4);
        let err = team
            .try_exec(|p| {
                if p.tid() == 0 {
                    panic!("boom before barrier");
                }
                p.barrier();
            })
            .expect_err("rank 0's panic must fail the region");
        assert!(
            matches!(&err, RegionError::Panicked { tids } if tids == &vec![0]),
            "waiters unwound by poisoning are collateral, not primaries: {err:?}"
        );
        // And the team still works.
        team.exec(|p| p.barrier());
        assert_eq!(team.size(), 4);
    });
}

#[test]
fn nan_injection_turns_verification_into_failure() {
    let plan = FaultPlan::parse("nan:1").unwrap();
    let opts = RunOptions { inject: Some(&plan), ..RunOptions::default() };
    let report = try_run_benchmark("EP", Class::S, Style::Opt, 0, &opts)
        .expect("NaN corruption does not fail the region, only verification");
    assert_eq!(report.verified, Verified::Failure);
}

#[test]
fn worker_fault_on_serial_run_is_a_config_error() {
    let plan = FaultPlan::parse("panic:1").unwrap();
    let opts = RunOptions { inject: Some(&plan), ..RunOptions::default() };
    match try_run_benchmark("EP", Class::S, Style::Opt, 0, &opts) {
        Err(RunError::Config(_)) => {}
        other => panic!("expected Config error, got {other:?}"),
    }
}

#[test]
fn injected_panic_fails_a_real_benchmark_then_retry_succeeds() {
    guarded(120, || {
        let plan = FaultPlan::parse("panic:3").unwrap();
        let opts = RunOptions { inject: Some(&plan), ..RunOptions::default() };
        match try_run_benchmark("CG", Class::S, Style::Opt, 2, &opts) {
            Err(RunError::Region(RegionError::Panicked { tids })) => {
                assert_eq!(tids, vec![plan.victim(2)])
            }
            other => panic!("expected Panicked region error, got {other:?}"),
        }
        // Faults are one-shot: the same call without the plan verifies.
        let clean = RunOptions::default();
        let report = try_run_benchmark("CG", Class::S, Style::Opt, 2, &clean).unwrap();
        assert!(report.verified.is_success());
    });
}

// ---- in-computation SDC guard (bitflip -> detect -> rollback) --------

/// Run `bench` with an armed exponent bit flip and the SDC guard on;
/// the guard must detect the corruption, roll back to the last
/// checkpoint, replay, and still verify. `spin_us` selects the
/// synchronization mode (`None` keeps the team default).
fn assert_bitflip_recovery_with_spin(bench: &str, threads: usize, spin_us: Option<u64>) {
    let plan = FaultPlan::parse("bitflip:42").unwrap();
    let opts = RunOptions {
        inject: Some(&plan),
        guard: GuardConfig::enabled_every(2),
        spin_us,
        ..RunOptions::default()
    };
    let report = try_run_benchmark(bench, Class::S, Style::Opt, threads, &opts)
        .expect("a bit flip never fails the region, only the numerics");
    assert!(
        report.verified.is_success(),
        "{bench} t={threads}: guarded run must verify after rollback, got {:?}",
        report.verified
    );
    assert!(
        report.recoveries >= 1,
        "{bench} t={threads}: the guard must have detected and rolled back at least once"
    );
    assert!(
        report.checkpoint_count >= 1,
        "{bench} t={threads}: recovery is impossible without checkpoints"
    );
}

fn assert_bitflip_recovery(bench: &str, threads: usize) {
    assert_bitflip_recovery_with_spin(bench, threads, None);
}

/// The no-guard control: the same flip corrupts the run and nothing
/// detects it, so verification must fail (this is what makes the
/// corruption *silent*).
fn assert_bitflip_unguarded_fails(bench: &str, threads: usize) {
    let plan = FaultPlan::parse("bitflip:42").unwrap();
    let opts = RunOptions { inject: Some(&plan), ..RunOptions::default() };
    let report = try_run_benchmark(bench, Class::S, Style::Opt, threads, &opts)
        .expect("a bit flip never fails the region, only the numerics");
    assert_eq!(report.verified, Verified::Failure, "{bench} t={threads}: unguarded control");
    assert_eq!(report.recoveries, 0, "{bench} t={threads}: dormant guard must not roll back");
}

#[test]
fn cg_bitflip_is_detected_rolled_back_and_verified() {
    guarded(120, || {
        assert_bitflip_recovery("CG", 0);
        assert_bitflip_recovery("CG", 2);
        assert_bitflip_unguarded_fails("CG", 0);
    });
}

#[test]
fn mg_bitflip_is_detected_rolled_back_and_verified() {
    guarded(120, || {
        assert_bitflip_recovery("MG", 0);
        assert_bitflip_recovery("MG", 2);
        assert_bitflip_unguarded_fails("MG", 0);
    });
}

#[test]
fn ft_bitflip_is_detected_rolled_back_and_verified() {
    guarded(120, || {
        assert_bitflip_recovery("FT", 0);
        assert_bitflip_recovery("FT", 2);
        assert_bitflip_unguarded_fails("FT", 0);
    });
}

#[test]
fn bt_bitflip_is_detected_rolled_back_and_verified() {
    guarded(120, || {
        assert_bitflip_recovery("BT", 0);
        assert_bitflip_recovery("BT", 2);
        assert_bitflip_unguarded_fails("BT", 0);
    });
}

#[test]
fn sp_bitflip_is_detected_rolled_back_and_verified() {
    guarded(120, || {
        assert_bitflip_recovery("SP", 0);
        assert_bitflip_recovery("SP", 2);
        assert_bitflip_unguarded_fails("SP", 0);
    });
}

#[test]
fn lu_bitflip_is_detected_rolled_back_and_verified() {
    guarded(120, || {
        assert_bitflip_recovery("LU", 0);
        assert_bitflip_recovery("LU", 2);
        assert_bitflip_unguarded_fails("LU", 0);
    });
}

#[test]
fn bitflip_recovery_works_with_spinning_enabled() {
    // The rollback-and-replay path reuses the team across attempts;
    // spinning waiters must not perturb detection, checkpointing, or the
    // replay's numerics.
    guarded(120, || {
        assert_bitflip_recovery_with_spin("CG", 2, Some(200_000));
        assert_bitflip_recovery_with_spin("MG", 2, Some(200_000));
    });
}

// ---- dynamic scheduling under faults ---------------------------------

/// A worker panic *inside a guided chunk* must poison the region like
/// any other mid-region death — no index may be silently dropped, the
/// failure names the dying rank, and `heal` restores a team whose next
/// guided region covers the iteration space exactly once.
#[test]
fn panic_inside_guided_chunk_poisons_then_team_heals() {
    guarded(60, || {
        let team = Team::new(4);
        team.set_sched(Sched::Guided);
        const LEN: usize = 4096;
        // Whichever rank claims the leading chunk dies mid-body.
        let victim = Arc::new(AtomicUsize::new(usize::MAX));
        let v = Arc::clone(&victim);
        let err = team
            .try_exec(move |p| {
                p.for_chunks(LEN, |r| {
                    if r.start == 0 {
                        v.store(p.tid(), Ordering::SeqCst);
                        panic!("injected guided-chunk death");
                    }
                });
            })
            .expect_err("a chunk-body panic must fail the region");
        match err {
            RegionError::Panicked { tids } => {
                assert_eq!(tids, vec![victim.load(Ordering::SeqCst)], "the dying rank is named");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
        // The default failure policy heals (respawns) on the next
        // dispatch; the healed team's guided regions must still cover
        // every index.
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..LEN).map(|_| AtomicUsize::new(0)).collect());
        let h = Arc::clone(&hits);
        team.try_exec(move |p| {
            p.for_chunks(LEN, |r| {
                for i in r {
                    h[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        })
        .expect("the healed team runs clean");
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "every index exactly once after heal"
        );
    });
}

/// A bit flip detected mid-run under the **feedback** policy must roll
/// back *and* discard the persisted per-rank timings: replayed
/// iterations re-partition from scratch instead of consulting splits
/// measured during the corrupted pass. `Team::sched_resets` counts that
/// discard, and the replay must still verify bit-for-bit — for every
/// benchmark that runs the guarded loop.
#[test]
fn bitflip_rollback_under_feedback_resets_sched_history() {
    type RunWithGuard = fn(Class, Style, Option<&Team>, &GuardConfig) -> npb::BenchReport;
    let benches: [(&str, RunWithGuard); 6] = [
        ("BT", npb_bt::run_with_guard),
        ("SP", npb_sp::run_with_guard),
        ("LU", npb_lu::run_with_guard),
        ("MG", npb_mg::run_with_guard),
        ("FT", npb_ft::run_with_guard),
        ("CG", npb_cg::run_with_guard),
    ];
    guarded(240, move || {
        for (name, run_with_guard) in benches {
            let team = Team::new(2);
            team.set_sched(Sched::Feedback);
            let plan = FaultPlan::parse("bitflip:42").unwrap();
            plan.arm(Some(&team)).unwrap();
            let gcfg = GuardConfig::enabled_every(2);
            let report = run_with_guard(Class::S, Style::Opt, Some(&team), &gcfg);
            assert!(
                report.verified.is_success(),
                "{name}: feedback-scheduled guarded run must verify after rollback, got {:?}",
                report.verified
            );
            assert!(report.recoveries >= 1, "{name}: the guard must have rolled back");
            assert!(
                team.sched_resets() >= 1,
                "{name}: rollback must reset the feedback scheduler's persisted timings"
            );
        }
    });
}

// ---- driver subprocesses (exit codes) --------------------------------

fn npb(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_npb")).args(args).output().expect("spawn npb driver")
}

#[test]
fn driver_nan_injection_exits_1() {
    let out = npb(&["ep", "--class", "S", "--inject", "nan:1"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn driver_injected_panic_with_retry_exits_0() {
    // The ISSUE's chaos smoke: the first attempt dies on the injected
    // panic, the retry runs clean and verifies.
    let out =
        npb(&["ep", "--class", "S", "--threads", "2", "--inject", "panic:1", "--retries", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("retrying"), "first attempt must have failed: {stderr}");
}

#[test]
fn driver_injected_panic_without_retry_exits_1() {
    let out = npb(&["ep", "--class", "S", "--threads", "2", "--inject", "panic:1"]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn driver_usage_error_exits_2() {
    let out = npb(&["ep", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(npb(&["ep", "--backend", "mpi"]).status.code(), Some(2), "unknown backend");
}

#[test]
fn driver_refuses_dynamic_sched_on_the_procs_backend() {
    // Worker processes split every region statically: asking for a
    // self-scheduled loop there is a configuration error that names the
    // backend that can honour it, never a silent fallback to static.
    let out =
        npb(&["ep", "--class", "S", "--threads", "2", "--backend", "procs", "--sched", "guided"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("requires the threads backend"), "stderr: {stderr}");
}

#[test]
fn driver_watchdog_timeout_terminates_with_watchdog_exit_code() {
    // A hang-injected rank wedges at region entry; the safe watchdog
    // cannot kill or abandon it, so it must terminate the process with
    // the dedicated exit code, naming the stuck rank.
    let out =
        npb(&["ep", "--class", "S", "--threads", "2", "--inject", "hang:1", "--timeout", "500"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(npb::WATCHDOG_EXIT_CODE), "stderr: {stderr}");
    assert!(stderr.contains("never arrived"), "stderr: {stderr}");
}

// ---- chaos meets observability (trace under failure) -----------------

#[test]
fn panic_poisoned_region_flushes_partial_spans_with_poisoned_marker() {
    // The recorder must not lose what it saw before the failure: when a
    // rank's region body unwinds, the driver still flushes the profile,
    // with the unwound rank marked poisoned and the surviving ranks'
    // partial spans intact. Subprocess, so the trace session is private.
    let path = std::env::temp_dir().join(format!("npb-chaos-poisoned-{}.json", std::process::id()));
    let out = npb(&[
        "cg",
        "--class",
        "S",
        "--threads",
        "2",
        "--inject",
        "panic:3",
        "--trace",
        path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "injected panic must fail the run: {stderr}");
    let text = std::fs::read_to_string(&path).expect("partial profile must still be written");
    std::fs::remove_file(&path).ok();
    let v = Json::parse(text.trim()).expect("profile of a failed run still parses");
    let Some(Json::Arr(poisoned)) = v.get("poisoned_ranks") else { panic!("poisoned_ranks") };
    assert!(!poisoned.is_empty(), "the unwound rank must be marked poisoned: {text}");
    let Some(Json::Arr(spans)) = v.get("spans") else { panic!("spans array") };
    assert!(!spans.is_empty(), "partial spans from before the panic must be flushed");
}

#[test]
fn driver_watchdog_termination_leaves_a_parseable_truncated_profile() {
    // The watchdog cannot unwind a wedged rank, so it terminates the
    // process — but first it emergency-flushes the trace, giving a
    // post-mortem profile of everything up to the hang.
    let path = std::env::temp_dir().join(format!("npb-chaos-watchdog-{}.json", std::process::id()));
    let out = npb(&[
        "ep",
        "--class",
        "S",
        "--threads",
        "2",
        "--inject",
        "hang:1",
        "--timeout",
        "500",
        "--trace",
        path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(npb::WATCHDOG_EXIT_CODE), "stderr: {stderr}");
    let text = std::fs::read_to_string(&path).expect("emergency dump must be written");
    std::fs::remove_file(&path).ok();
    let v = Json::parse(text.trim()).expect("truncated profile still parses");
    assert_eq!(v.get("truncated"), Some(&Json::Bool(true)), "profile: {text}");
    assert_eq!(v.get_str("bench"), Some("EP"));
}

#[test]
fn driver_bitflip_rollback_is_recorded_as_a_trace_span() {
    // A guarded run that detects corruption and rolls back must show
    // that recovery in the profile: rollback time is real wall clock.
    let path = std::env::temp_dir().join(format!("npb-chaos-rollback-{}.json", std::process::id()));
    let out = npb(&[
        "cg",
        "--class",
        "S",
        "--inject",
        "bitflip:42",
        "--sdc-guard",
        "--checkpoint-every",
        "2",
        "--trace",
        path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "guarded run must recover and verify: {stderr}");
    let text = std::fs::read_to_string(&path).expect("profile written");
    std::fs::remove_file(&path).ok();
    let v = Json::parse(text.trim()).expect("profile parses");
    let Some(Json::Arr(spans)) = v.get("spans") else { panic!("spans array") };
    assert!(
        spans.iter().any(|sp| sp.get_str("kind") == Some("rollback")),
        "a rollback span must be recorded"
    );
    let Some(Json::Arr(regions)) = v.get("regions") else { panic!("regions array") };
    let rollbacks: f64 = regions.iter().filter_map(|r| r.get_num("rollbacks")).sum();
    assert!(rollbacks >= 1.0, "region aggregates must count the rollback");
}

#[test]
fn driver_watchdog_fires_while_workers_are_spinning() {
    // With a large spin budget the healthy rank spins (then parks) while
    // the hang-injected rank is wedged; the master's own spin phase is
    // bounded by the watchdog deadline, so the timeout must still fire.
    let out = npb(&[
        "ep",
        "--class",
        "S",
        "--threads",
        "2",
        "--inject",
        "hang:1",
        "--timeout",
        "500",
        "--spin-us",
        "200000",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(npb::WATCHDOG_EXIT_CODE), "stderr: {stderr}");
    assert!(stderr.contains("never arrived"), "stderr: {stderr}");
}

// ---- procs backend: rank-crash containment ---------------------------
//
// The tentpole acceptance criteria: SIGKILL of any single worker rank
// mid-run ends in a verified run with `recoveries >= 1` journaled and
// never a hung parent. That a procs run is bit-identical to a threads
// run at the same width is pinned in `tests/golden.rs`.

/// The last `--json` record a driver printed, parsed.
fn last_json(stdout: &[u8]) -> Json {
    let text = String::from_utf8_lossy(stdout);
    let line = text
        .lines()
        .rev()
        .map(str::trim)
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no json record in stdout: {text}"));
    Json::parse(line).expect("parse driver json record")
}

/// PPid of `/proc/<pid>`, if it still exists.
fn ppid_of(pid: &str) -> Option<u32> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find(|l| l.starts_with("PPid:"))?.split_whitespace().nth(1)?.parse().ok()
}

/// Poll /proc for a worker-rank child of `parent` (cmdline carries the
/// hidden `--rank` flag). The pacing env var keeps S-class rounds slow
/// enough that the worker is alive for seconds, not milliseconds.
fn find_worker_rank(parent: u32, within: Duration) -> u32 {
    let deadline = std::time::Instant::now() + within;
    while std::time::Instant::now() < deadline {
        for entry in std::fs::read_dir("/proc").expect("read /proc").flatten() {
            let name = entry.file_name();
            let Some(pid) = name.to_str().filter(|n| n.bytes().all(|b| b.is_ascii_digit())) else {
                continue;
            };
            if ppid_of(pid) != Some(parent) {
                continue;
            }
            let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
            if cmdline.split(|&b| b == 0).any(|arg| arg == b"--rank") {
                return pid.parse().unwrap();
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("no worker rank appeared under pid {parent} within {within:?}");
}

/// SIGKILL one worker rank of a paced procs run and return the parent's
/// output. `extra` rides on the command line (the recovery-budget knob).
fn run_procs_and_kill_rank(bench: &str, extra: &[&str]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_npb"));
    cmd.args([bench, "--class", "S", "--backend", "procs", "--threads", "4", "--json"])
        .args(extra)
        .env("NPB_PROCS_ROUND_DELAY_MS", "150")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    let child = cmd.spawn().expect("spawn procs parent");
    let victim = find_worker_rank(child.id(), Duration::from_secs(20));
    // Let the ranks commit a checkpoint or two first, so the recovery
    // exercises restore-from-checkpoint, not restart-from-scratch.
    std::thread::sleep(Duration::from_millis(400));
    assert!(npb_service::signal::send(victim, 9), "SIGKILL rank pid {victim}");
    guarded(120, move || child.wait_with_output().expect("reap procs parent"))
}

fn assert_kill_one_rank_is_contained(bench: &'static str) {
    let out = run_procs_and_kill_rank(bench, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("died (signal:9)"), "stderr: {stderr}");
    let record = last_json(&out.stdout);
    assert_eq!(record.get_str("verified"), Some("success"), "stderr: {stderr}");
    assert!(record.get_uint("recoveries").unwrap_or(0) >= 1, "recovery must be journaled");
}

#[test]
fn procs_ep_survives_sigkill_of_one_rank() {
    assert_kill_one_rank_is_contained("ep");
}

#[test]
fn procs_is_survives_sigkill_of_one_rank() {
    assert_kill_one_rank_is_contained("is");
}

/// CG is the one procs benchmark whose checkpoint belongs to the
/// parent (`x` in the parent slot): recovery restores it there, not
/// from the dead rank's own slot.
#[test]
fn procs_cg_survives_sigkill_of_one_rank() {
    assert_kill_one_rank_is_contained("cg");
}

#[test]
fn procs_sigkill_without_recovery_budget_fails_terminally() {
    // The unguarded control: with the recovery budget at zero the same
    // rank death must end the run with a structured failure (exit 1),
    // not a verified report and not a hung parent.
    let out = run_procs_and_kill_rank("ep", &["--max-recoveries", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("panicked inside a parallel region"), "stderr: {stderr}");
}

#[test]
fn procs_injected_panic_recovers_from_checkpoints() {
    // The deterministic (raceless) leg of crash containment: the
    // injected fault fires at the first round after every rank
    // committed a checkpoint, so the recovery proves restore.
    let out = npb(&[
        "ep",
        "--class",
        "S",
        "--backend",
        "procs",
        "--threads",
        "2",
        "--inject",
        "panic",
        "--json",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let record = last_json(&out.stdout);
    assert_eq!(record.get_str("verified"), Some("success"));
    assert!(record.get_uint("recoveries").unwrap_or(0) >= 1, "stderr: {stderr}");
}

/// A paced-free, fully deterministic Level-6 composition: a procs run
/// whose checkpoint *commits* hit injected short writes (ambient
/// `NPB_IO_INJECT`, surface `ckpt`) while a rank panic forces a
/// recovery. Seed 3's trip sequence leaves the round-1 commit clean, so
/// the recovery restores from committed round 1 — and the torn commits
/// later in the stream are journaled as `io-degraded` without
/// perturbing the arithmetic: the result_sig is bit-identical to an
/// uninjected run.
#[test]
fn procs_short_write_torn_checkpoint_restores_previous_committed_round() {
    let run = |inject: Option<&str>, extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_npb"));
        cmd.args(["ep", "--class", "S", "--backend", "procs", "--threads", "2", "--json"])
            .args(extra);
        if let Some(spec) = inject {
            cmd.env("NPB_IO_INJECT", spec);
        }
        guarded(120, move || cmd.output().expect("spawn npb driver"))
    };

    let out = run(Some("short-write:3"), &["--inject", "panic"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stderr.contains("io-degraded: ckpt save failed: injected short write"),
        "torn commits must surface as structured degradations: {stderr}"
    );
    assert_whole_io_degraded_lines(&stderr);
    assert!(
        stderr.contains("restoring every rank from checkpoint round 1"),
        "recovery restores from the committed round, not from scratch: {stderr}"
    );
    let record = last_json(&out.stdout);
    assert_eq!(record.get_str("verified"), Some("success"), "stderr: {stderr}");
    assert!(record.get_uint("recoveries").unwrap_or(0) >= 1);
    let injected_sig = record.get_str("result_sig").expect("result_sig").to_string();

    // Paper-fidelity control: the same run with no injection and no
    // fault agrees to the last bit — checkpoint tearing corrupts
    // *restores* (which the hash check vetoes), never live arithmetic.
    let clean = run(None, &[]);
    assert_eq!(clean.status.code(), Some(0));
    assert_eq!(
        last_json(&clean.stdout).get_str("result_sig"),
        Some(injected_sig.as_str()),
        "injection must not perturb the computed result"
    );

    // Seed 2 trips on the very first commit: the round-1 image is torn
    // in every rank, the hash check vetoes it at recovery, and with no
    // older committed image the run restarts from round 0 — torn
    // checkpoints are *never* restorable.
    let out = run(Some("short-write:2"), &["--inject", "panic"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stderr.contains("restoring every rank from checkpoint round 0"),
        "a torn first commit must be vetoed by the hash check: {stderr}"
    );
    assert_whole_io_degraded_lines(&stderr);
    assert_eq!(last_json(&out.stdout).get_str("verified"), Some("success"), "stderr: {stderr}");
}

/// Every `io-degraded` line on `stderr` is one whole line as one process
/// wrote it. All ranks share one stderr, so a line written in pieces can
/// splice with another rank's.
fn assert_whole_io_degraded_lines(stderr: &str) {
    for line in stderr.lines().filter(|l| l.contains("io-degraded")) {
        let parts = line.strip_prefix("npb procs: ").and_then(|l| l.split_once(": "));
        let whole = parts.is_some_and(|(who, rest)| {
            (who == "parent"
                || who.strip_prefix("rank ").is_some_and(|r| r.parse::<usize>().is_ok()))
                && rest.starts_with("io-degraded: ckpt save failed: ")
                && rest.matches("io-degraded").count() == 1
                && rest.ends_with("converges)")
        });
        assert!(whole, "a spliced io-degraded line: {line:?}\nstderr: {stderr}");
    }
}

/// `checkpoint_count` counts commits that flipped the image. Under
/// `enospc:1` the parent's refused commits are reported as
/// `io-degraded` lines, and the two add up to a clean run's count.
#[test]
fn procs_cg_checkpoint_count_skips_refused_commits() {
    let run = |inject: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_npb"));
        cmd.args(["cg", "--class", "S", "--backend", "procs", "--threads", "2", "--json"]);
        if let Some(spec) = inject {
            cmd.env("NPB_IO_INJECT", spec);
        }
        guarded(120, move || cmd.output().expect("spawn npb driver"))
    };
    let clean = run(None);
    assert_eq!(clean.status.code(), Some(0));
    let clean_count = last_json(&clean.stdout).get_uint("checkpoint_count").unwrap();

    let out = run(Some("enospc:1"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let refused = stderr.lines().filter(|l| l.contains("io-degraded")).count() as u64;
    assert!(refused >= 1, "enospc:1 must refuse a commit: {stderr}");
    let count = last_json(&out.stdout).get_uint("checkpoint_count").unwrap();
    assert_eq!(count + refused, clean_count, "stderr: {stderr}");
}

#[test]
fn procs_rejects_in_process_corruption_faults() {
    // NaN/bit-flip faults corrupt in-process state and cannot cross the
    // exec boundary; the driver must say so instead of silently
    // ignoring the flag.
    let out =
        npb(&["cg", "--class", "S", "--backend", "procs", "--threads", "2", "--inject", "bitflip"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot cross the procs exec boundary"), "stderr: {stderr}");
}
