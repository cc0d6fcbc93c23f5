//! Supervisor chaos suite: the out-of-process fault-tolerance layer,
//! exercised end to end against the real `npb` and `npb-suite` binaries
//! (ISSUE 2 acceptance criteria).
//!
//! The in-process chaos tests (`tests/chaos_suite.rs`) prove that a
//! watchdog exit or a wedged rank kills the *process*; these tests
//! prove the supervisor contains exactly those deaths to one cell of a
//! sweep: deadline-kill + clean retry, degradation, quarantine
//! reporting, and crash-safe resume.

use std::path::PathBuf;
use std::process::{Command, Output};

use npb_harness::manifest::CellStatus;
use npb_harness::read_manifest;

fn tmp_manifest(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("npb-suite-test-{}-{name}.jsonl", std::process::id()))
}

/// Run `npb-suite` with the given args, always pointing it at the real
/// `npb` driver binary cargo built for this test run.
fn suite(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_npb-suite"))
        .args(args)
        .args(["--npb-bin", env!("CARGO_BIN_EXE_npb")])
        .output()
        .expect("spawn npb-suite")
}

#[test]
fn hang_injected_cell_is_deadline_killed_retried_clean_and_journaled() {
    let manifest = tmp_manifest("hang-kill-retry");
    // The injected hang wedges a rank at region entry: in-process this
    // is unrecoverable (the watchdog can only die). The supervisor must
    // kill the child at the deadline, retry clean, and verify.
    let out = suite(&[
        "ep",
        "--class",
        "S",
        "--threads",
        "2",
        "--inject",
        "hang:1",
        "--deadline-ms",
        "2000",
        "--retries",
        "1",
        "--backoff-ms",
        "0",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("killed and reaped"), "stderr: {stderr}");

    // The manifest must record BOTH the kill and the eventual success.
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(
        text.contains(r#""event":"attempt","bench":"EP","class":"S","style":"opt","threads":2,"attempt":0,"run_threads":2,"outcome":"deadline-killed""#),
        "manifest must journal the kill: {text}"
    );
    assert!(
        text.contains(r#""attempt":1,"run_threads":2,"outcome":"verified""#),
        "manifest must journal the clean retry: {text}"
    );
    let state = read_manifest(&manifest).unwrap();
    assert_eq!(state.outcomes.len(), 1);
    assert_eq!(state.outcomes[0].status, CellStatus::Verified);
    assert_eq!(state.outcomes[0].attempts, 2);
    assert_eq!(state.outcomes[0].kills, 1);
    assert_eq!(state.outcomes[0].final_threads, 2, "retry happens at the requested width");
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn resume_runs_exactly_the_remaining_cells() {
    let manifest = tmp_manifest("resume");
    // A fast clean three-cell sweep...
    let out = suite(&[
        "ep,cg,mg",
        "--class",
        "S",
        "--threads",
        "1",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // ...killed "mid-sweep": truncate the journal into the middle of
    // the second cell's terminal record, exactly what SIGKILL during
    // the append leaves behind.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let second_cell = text.match_indices(r#"{"event":"cell""#).nth(1).unwrap().0;
    std::fs::write(&manifest, &text[..second_cell + 20]).unwrap();

    let out = suite(&[
        "ep,cg,mg",
        "--class",
        "S",
        "--threads",
        "1",
        "--resume",
        manifest.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.contains("torn line"), "torn tail must be reported: {stderr}");
    assert_eq!(
        stdout.matches("skipped (already completed in resumed manifest)").count(),
        1,
        "exactly the one intact cell is skipped: {stdout}"
    );
    assert_eq!(stdout.matches("... verified").count(), 2, "the other two cells run: {stdout}");

    // The resumed manifest is complete: all three cells have terminal
    // records, and EP (completed before the kill) was not re-run.
    let state = read_manifest(&manifest).unwrap();
    assert_eq!(state.outcomes.len(), 3, "complete manifest after resume");
    assert!(state.outcomes.iter().all(|o| o.status == CellStatus::Verified));
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert_eq!(
        text.matches(r#""event":"attempt","bench":"EP""#).count(),
        1,
        "EP ran once in total across both invocations: {text}"
    );
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn child_watchdog_exit_is_contained_and_retried() {
    // With --child-timeout-ms the *child's* in-process watchdog fires
    // first (exit 3) — previously fatal to a whole `npb all`. The
    // supervisor classifies it, retries clean, and the sweep survives.
    let manifest = tmp_manifest("watchdog");
    let out = suite(&[
        "ep",
        "--class",
        "S",
        "--threads",
        "2",
        "--inject",
        "hang:1",
        "--child-timeout-ms",
        "500",
        "--deadline-ms",
        "10000",
        "--retries",
        "1",
        "--backoff-ms",
        "0",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(
        text.contains(r#""attempt":0,"run_threads":2,"outcome":"watchdog-exit""#),
        "the child watchdog exit must be journaled as such: {text}"
    );
    let state = read_manifest(&manifest).unwrap();
    assert_eq!(state.outcomes[0].status, CellStatus::Verified);
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn verification_failure_is_reported_not_quarantined() {
    // An injected NaN makes verification fail (exit 1 + JSON record):
    // numerics, not infrastructure — the supervisor must not walk the
    // thread ladder, and with no retries the cell fails terminally.
    let manifest = tmp_manifest("nan");
    let out = suite(&[
        "ep",
        "--class",
        "S",
        "--threads",
        "0",
        "--inject",
        "nan:1",
        "--retries",
        "0",
        "--backoff-ms",
        "0",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "a failed cell fails the sweep: {stdout}");
    assert!(stdout.contains("verification-failed"), "{stdout}");
    let state = read_manifest(&manifest).unwrap();
    assert_eq!(state.outcomes[0].status, CellStatus::Failed("verification-failed"));
    assert_eq!(state.outcomes[0].attempts, 1, "verification failures do not walk the ladder");
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn bitflip_cell_recovers_in_computation_and_is_journaled_as_verified() {
    // The innermost layer of the fault-tolerance stack, seen from the
    // outermost: the child's SDC guard detects the injected bit flip,
    // rolls back, and verifies — so the supervisor sees a clean exit 0
    // on the FIRST attempt. No retry, no degradation ladder, and the
    // manifest records the recovery count in the `recovered` dimension.
    let manifest = tmp_manifest("bitflip-recovery");
    let out = suite(&[
        "cg",
        "--class",
        "S",
        "--threads",
        "0",
        "--inject",
        "bitflip:42",
        "--sdc-guard",
        "--checkpoint-every",
        "2",
        "--retries",
        "0",
        "--backoff-ms",
        "0",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("sdc recover"), "recovery surfaces in the cell line: {stdout}");
    assert!(stdout.contains("1 via sdc recovery"), "and in the summary: {stdout}");

    let state = read_manifest(&manifest).unwrap();
    assert_eq!(state.outcomes.len(), 1);
    assert_eq!(state.outcomes[0].status, CellStatus::Verified);
    assert_eq!(state.outcomes[0].attempts, 1, "in-computation recovery needs no supervisor retry");
    assert_eq!(state.outcomes[0].kills, 0);
    assert!(state.outcomes[0].recoveries >= 1, "the recovered dimension must be journaled");
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(suite(&["ep", "--bogus"]).status.code(), Some(2));
    assert_eq!(suite(&["zz"]).status.code(), Some(2));
    // Worker faults cannot be injected into a serial-width sweep; the
    // supervisor rejects the sweep up front instead of failing 8 cells.
    let out = suite(&["ep", "--threads", "0", "--inject", "hang:1"]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn a_sweep_holding_a_run_that_cannot_work_is_refused_before_its_first_cell() {
    // The rules `npbd` applies at admission, applied to each width of the
    // sweep before any child or manifest exists.
    for (args, why) in [
        (&["--threads", "0,2", "--backend", "procs"][..], "threads >= 1"),
        (&["--threads", "2", "--backend", "procs", "--sched", "guided"], "requires the threads"),
        (&["--threads", "2", "--backend", "procs", "--inject", "bitflip:1"], "cannot cross"),
        (&["--threads", "2,257"], "wider than"),
    ] {
        let manifest = tmp_manifest("refused");
        let mut argv = vec!["ep"];
        argv.extend_from_slice(args);
        argv.extend_from_slice(&["--manifest", manifest.to_str().unwrap()]);
        let out = suite(&argv);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(!manifest.exists(), "{args:?}: the sweep started");
    }
    // `--timeout` is `npb`'s spelling; the supervisor's is `--child-timeout-ms`.
    assert_eq!(suite(&["ep", "--timeout", "5"]).status.code(), Some(2));
}

#[test]
fn driver_json_flag_emits_the_parseable_record() {
    // The structured channel the supervisor relies on: one JSON line on
    // stdout alongside the classic banner.
    let out = Command::new(env!("CARGO_BIN_EXE_npb"))
        .args(["ep", "--class", "S", "--threads", "2", "--json"])
        .output()
        .expect("spawn npb");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("EP Benchmark Completed"), "banner still prints: {stdout}");
    let record = npb_harness::ChildReport::last_in(&stdout)
        .expect("stdout must contain a parseable JSON record");
    assert_eq!(record.name, "EP");
    assert_eq!(record.threads, 2);
    assert_eq!(record.verified, "success");
    assert_eq!(record.attempts, 1);
}

#[test]
fn traced_sweep_prints_the_scalability_table_and_journals_region_profiles() {
    // One traced cell through the supervisor: the child's per-region
    // profile must ride its JSON record into the manifest, and the suite
    // must print the paper-style scalability table from those aggregates.
    let manifest = tmp_manifest("trace-table");
    let out = suite(&[
        "cg",
        "--class",
        "S",
        "--threads",
        "2",
        "--trace",
        "--manifest",
        manifest.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("speedup"), "the scalability table must print: {stdout}");
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.contains(r#""regions":["#), "cell records must carry the profile: {text}");
    std::fs::remove_file(&manifest).ok();
}
