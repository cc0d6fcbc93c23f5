//! The process-isolated suite supervisor.
//!
//! PR 1's in-process fault model deliberately converts a hung region
//! into process death (`WATCHDOG_EXIT_CODE`), which is sound but means
//! one stuck rank kills an entire `npb all` sweep. The supervisor is
//! the second, out-of-process fault-tolerance layer: every (benchmark,
//! class, style, threads) cell runs as its own child `npb` process, so
//! panics, watchdog exits, aborts and signals are contained to one
//! cell, and the supervisor can do the one thing the in-process
//! watchdog cannot — kill a hung child and keep going.
//!
//! Per cell the supervisor owns:
//!
//! * a wall-clock **deadline** with kill-then-reap escalation — the
//!   child is waited on, not sampled: one `poll` over its pidfd and
//!   pipes with the deadline as the timeout (`npb_core::child`);
//! * **retries** with deterministic exponential [`Backoff`] (randlc
//!   jitter — a sweep replays exactly from its seed);
//! * the **failure taxonomy** ([`AttemptOutcome`]) mapping child exits,
//!   kills and signals to dispositions;
//! * the **degradation ladder**: repeated region-class failures retry
//!   at threads N → N/2 → … → serial before the cell is quarantined —
//!   and quarantined cells are reported, never silently dropped;
//! * the **run manifest**: every attempt and terminal outcome is
//!   journaled, so `--resume` continues a killed sweep.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use npb_core::child::{wait_child, Waited};
use npb_core::{Class, ResourceLimits};

use crate::backoff::Backoff;
use crate::manifest::{Cell, CellOutcome, CellStatus, Manifest, ResumeState};
use crate::outcome::{classify_exit, AttemptOutcome, ChildReport, Disposition};

/// Supervisor configuration for one sweep.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// The `npb` driver binary each cell re-invokes.
    pub npb_bin: PathBuf,
    /// Wall-clock budget per child process; `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Retries *per ladder rung* (so `--retries 1` means up to two
    /// attempts at the requested width before degrading).
    pub retries: usize,
    /// Fault spec passed to the very first attempt of each cell
    /// (validated upstream; injected faults are one-shot so retries and
    /// degraded rungs always run clean).
    pub inject: Option<String>,
    /// Optional in-process watchdog (`npb --timeout`) forwarded to
    /// children, exercising the exit-3 leg of the taxonomy.
    pub child_timeout_ms: Option<u64>,
    /// Forward `--sdc-guard` to every child, arming the in-computation
    /// detection/rollback layer inside each benchmark's outer loop.
    pub sdc_guard: bool,
    /// Forward `--checkpoint-every K` to every child.
    pub checkpoint_every: Option<usize>,
    /// Forward `--spin-us US` to every child: the team's hybrid
    /// spin-then-park budget in microseconds (0 = pure park path).
    pub spin_us: Option<u64>,
    /// Forward `--backend <label>` to every child ("threads" or
    /// "procs"; validated upstream). With "procs" the degradation
    /// ladder stops at one rank — there is no serial rung to descend
    /// to, a process-sharded run needs at least one worker process.
    pub backend: Option<String>,
    /// Forward `--sched <label>` to every child: the loop-scheduling
    /// policy ("static", "guided" or "feedback"; validated upstream).
    /// `None` leaves the children on their own default (static, or the
    /// ambient `NPB_SCHED`).
    pub sched: Option<String>,
    /// Run every child with `--trace` (a throwaway temp file): the
    /// per-region profile then rides the child's `--json` record into
    /// the manifest's cell records, feeding the scalability table.
    pub trace: bool,
    /// Walk the degradation ladder (threads N → N/2 → … → serial) when
    /// region-class failures exhaust a rung's retries. `false` pins the
    /// cell at its requested width — the per-job fault-policy knob the
    /// `npbd` service exposes, for callers who would rather see a fast
    /// terminal failure than a degraded-width success.
    pub degrade: bool,
    /// Base of the exponential backoff (0 disables sleeping).
    pub backoff_base_ms: u64,
    /// Sweep seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Per-child resource containment (`--mem-limit-mb`,
    /// `--cpu-limit-s`, `--fd-limit`), applied *child-side*: the flags
    /// are forwarded and the `npb` driver calls `setrlimit` on itself
    /// before touching a benchmark. A child that blows a cap dies to a
    /// kernel signal, classified `oom-killed` / `cpu-limit`, and the
    /// supervisor degrades its *class* (C→B→…→S) before its width.
    pub limits: ResourceLimits,
}

/// The policy label every [`CellOutcome`] of a sweep is journaled
/// under: the forwarded `--sched`, or the children's static default.
fn cell_sched(cfg: &SuiteConfig) -> String {
    cfg.sched.clone().unwrap_or_else(|| "static".to_string())
}

/// The degradation ladder for a requested width: N → N/2 → … → 1 →
/// serial (0). A serial request has nowhere to descend.
pub fn ladder(threads: usize) -> Vec<usize> {
    let mut rungs = Vec::new();
    let mut t = threads;
    while t >= 1 {
        rungs.push(t);
        t /= 2;
    }
    rungs.push(0);
    rungs
}

/// Outcome of a whole sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Terminal outcomes in run order, *including* outcomes replayed
    /// from the resumed manifest.
    pub outcomes: Vec<CellOutcome>,
    /// Cells skipped because the resumed manifest already completed them.
    pub skipped: usize,
}

impl SweepResult {
    /// A sweep succeeds only if every cell verified.
    pub fn all_verified(&self) -> bool {
        self.outcomes.iter().all(|o| o.status == CellStatus::Verified)
    }
}

/// Run `cells`, journaling to `manifest`, honouring a `resume` state.
///
/// Progress goes to stdout (one line per cell), child stderr is relayed
/// on failures, and the function itself only errors on manifest I/O —
/// child failures are data, not errors.
pub fn run_sweep(
    cfg: &SuiteConfig,
    cells: &[Cell],
    mut manifest: Option<&mut Manifest>,
    resume: &ResumeState,
) -> std::io::Result<SweepResult> {
    let mut result = SweepResult { outcomes: resume.outcomes.clone(), skipped: 0 };
    let total = cells.len();
    for (i, cell) in cells.iter().enumerate() {
        let tag = format!("[{}/{}] {cell}", i + 1, total);
        if resume.completed.contains(&cell.key()) {
            println!("{tag} ... skipped (already completed in resumed manifest)");
            result.skipped += 1;
            continue;
        }
        let outcome = run_cell(cfg, cell, i as u64, manifest.as_deref_mut())?;
        let detail = match (&outcome.status, outcome.mops) {
            (CellStatus::Verified, Some(m)) => format!(
                "verified ({} attempt{}, {} kill{}{}, {:.2} Mop/s at {})",
                outcome.attempts,
                if outcome.attempts == 1 { "" } else { "s" },
                outcome.kills,
                if outcome.kills == 1 { "" } else { "s" },
                if outcome.recoveries > 0 {
                    format!(
                        ", {} sdc recover{}",
                        outcome.recoveries,
                        if outcome.recoveries == 1 { "y" } else { "ies" }
                    )
                } else {
                    String::new()
                },
                m,
                width_label(outcome.final_threads),
            ),
            (status, _) => format!(
                "{} ({} attempts, {} kills, last width {})",
                status.tag(),
                outcome.attempts,
                outcome.kills,
                width_label(outcome.final_threads),
            ),
        };
        println!("{tag} ... {detail}");
        result.outcomes.push(outcome);
    }
    Ok(result)
}

fn width_label(threads: usize) -> String {
    if threads == 0 {
        "serial".to_string()
    } else {
        format!("{threads}t")
    }
}

/// Drive one cell to a terminal outcome: retries, ladder (unless
/// `cfg.degrade` is off), quarantine.
///
/// Public because it is the per-job execution primitive: the `npbd`
/// service supervises each accepted job through exactly this path (its
/// own journal rides on the returned [`CellOutcome`], so it passes
/// `manifest: None`), while `npb-suite` calls it via [`run_sweep`].
pub fn run_cell(
    cfg: &SuiteConfig,
    cell: &Cell,
    cell_index: u64,
    mut manifest: Option<&mut Manifest>,
) -> std::io::Result<CellOutcome> {
    let mut backoff = Backoff::new(cfg.seed, cell_index, cfg.backoff_base_ms);
    let mut attempts = 0u64;
    let mut kills = 0u64;
    // Resource exhaustion walks this *class* ladder (C → B → … → S)
    // before the thread ladder: a smaller problem fits the cap, a
    // smaller team does not.
    let mut class = cell.class;
    let mut rungs = if cfg.degrade { ladder(cell.threads) } else { vec![cell.threads] };
    // A procs child shards across worker processes: width 0 (serial)
    // does not exist for it, so the ladder bottoms out at one rank.
    if cfg.backend.as_deref() == Some("procs") {
        rungs.retain(|&r| r >= 1);
    }
    for rung in rungs {
        if rung > cell.threads {
            continue; // unreachable by construction, but cheap to guard
        }
        let mut rung_retries = 0usize;
        loop {
            if attempts > 0 {
                std::thread::sleep(backoff.delay(attempts as usize));
            }
            // Injected faults are one-shot by design; only the very
            // first attempt of the cell carries the spec, so every
            // retry and every degraded rung runs clean.
            let inject = cfg.inject.as_deref().filter(|_| attempts == 0);
            let started = Instant::now();
            let (outcome, stderr) = run_child(cfg, cell, class, rung, inject);
            let elapsed_ms = started.elapsed().as_millis() as u64;
            attempts += 1;
            if outcome.is_kill() {
                kills += 1;
            }
            if let Some(m) = manifest.as_deref_mut() {
                m.attempt(cell, attempts - 1, rung, &outcome, elapsed_ms)?;
            }
            let disposition = outcome.disposition();
            if disposition != Disposition::Done {
                relay_stderr(cell, &outcome, &stderr);
            }
            match disposition {
                Disposition::Done => {
                    let report = match outcome {
                        AttemptOutcome::Verified(r) => r,
                        _ => unreachable!("Done is only produced by Verified"),
                    };
                    return finish(
                        manifest,
                        CellOutcome {
                            cell: cell.clone(),
                            status: CellStatus::Verified,
                            attempts,
                            kills,
                            final_threads: rung,
                            final_class: class,
                            mops: Some(report.mops),
                            time_secs: Some(report.time_secs),
                            recoveries: report.recoveries,
                            regions: report.regions,
                            rank_dispositions: report.rank_dispositions,
                            sched: cell_sched(cfg),
                        },
                    );
                }
                Disposition::Fatal => {
                    return finish(
                        manifest,
                        CellOutcome {
                            cell: cell.clone(),
                            status: CellStatus::Failed(outcome_tag(&outcome)),
                            attempts,
                            kills,
                            final_threads: rung,
                            final_class: class,
                            mops: None,
                            time_secs: None,
                            recoveries: 0,
                            regions: Vec::new(),
                            rank_dispositions: Vec::new(),
                            sched: cell_sched(cfg),
                        },
                    );
                }
                Disposition::RetrySameWidth => {
                    if rung_retries < cfg.retries {
                        rung_retries += 1;
                        continue;
                    }
                    // Verification failures never walk the ladder:
                    // fewer threads cannot fix numerics that already
                    // computed (and an injected NaN already got its
                    // clean retries).
                    return finish(
                        manifest,
                        CellOutcome {
                            cell: cell.clone(),
                            status: CellStatus::Failed(outcome_tag(&outcome)),
                            attempts,
                            kills,
                            final_threads: rung,
                            final_class: class,
                            mops: None,
                            time_secs: None,
                            recoveries: 0,
                            regions: Vec::new(),
                            rank_dispositions: Vec::new(),
                            sched: cell_sched(cfg),
                        },
                    );
                }
                Disposition::RetryOrDegrade => {
                    if rung_retries < cfg.retries {
                        rung_retries += 1;
                        continue;
                    }
                    break; // budget at this width exhausted — descend
                }
                Disposition::RetryOrDegradeClass => {
                    if rung_retries < cfg.retries {
                        rung_retries += 1;
                        continue;
                    }
                    // The resource-exhaustion rule: downgrade the
                    // problem class at the *same* width first. Only a
                    // cell already at S falls through to the thread
                    // ladder (where quarantine eventually catches it).
                    if let Some(lower) = class.degrade() {
                        eprintln!(
                            "npb-suite: {cell}: {} at class {class} — degrading class to {lower}",
                            outcome.tag()
                        );
                        class = lower;
                        rung_retries = 0;
                        continue;
                    }
                    break;
                }
            }
        }
    }
    // The whole ladder — down to serial, or just the requested width
    // when degradation is off — failed on region-class outcomes: park
    // the cell. It is reported in the summary and the manifest, never
    // silently dropped.
    finish(
        manifest,
        CellOutcome {
            cell: cell.clone(),
            status: CellStatus::Quarantined,
            attempts,
            kills,
            final_threads: if cfg.degrade { 0 } else { cell.threads },
            final_class: class,
            mops: None,
            time_secs: None,
            recoveries: 0,
            regions: Vec::new(),
            rank_dispositions: Vec::new(),
            sched: cell_sched(cfg),
        },
    )
}

fn finish(manifest: Option<&mut Manifest>, outcome: CellOutcome) -> std::io::Result<CellOutcome> {
    if let Some(m) = manifest {
        m.cell(&outcome)?;
    }
    Ok(outcome)
}

/// The static tag for a failed attempt, for `CellStatus::Failed`.
fn outcome_tag(outcome: &AttemptOutcome) -> &'static str {
    match outcome {
        AttemptOutcome::VerificationFailed(_) => "verification-failed",
        AttemptOutcome::RegionFailed => "region-failed",
        AttemptOutcome::UsageError => "usage-error",
        AttemptOutcome::SpawnFailed(_) => "spawn-failed",
        AttemptOutcome::WatchdogExit => "watchdog-exit",
        AttemptOutcome::DeadlineKilled { .. } => "deadline-killed",
        AttemptOutcome::Signaled(_) => "signaled",
        AttemptOutcome::OomKilled(_) => "oom-killed",
        AttemptOutcome::CpuLimit => "cpu-limit",
        AttemptOutcome::UnknownExit(_) => "unknown-exit",
        AttemptOutcome::Verified(_) => "verified",
    }
}

fn relay_stderr(cell: &Cell, outcome: &AttemptOutcome, stderr: &str) {
    let mut lines = stderr.lines().filter(|l| !l.trim().is_empty());
    let first = lines.next().unwrap_or("");
    let more = lines.count();
    match outcome {
        AttemptOutcome::DeadlineKilled { after } => {
            eprintln!(
                "npb-suite: {cell}: child exceeded its deadline ({} ms), killed and reaped",
                after.as_millis()
            );
        }
        AttemptOutcome::SpawnFailed(e) => {
            eprintln!("npb-suite: {cell}: failed to spawn child: {e}");
        }
        _ if first.is_empty() => {
            eprintln!("npb-suite: {cell}: child attempt ended {}", outcome.tag());
        }
        _ => {
            eprintln!(
                "npb-suite: {cell}: child attempt ended {} — {first}{}",
                outcome.tag(),
                if more > 0 { format!(" (+{more} more stderr lines)") } else { String::new() }
            );
        }
    }
}

/// Spawn one child for `cell` at class `class` (the requested class, or
/// a lower rung of the resource-degradation ladder) and width `rung`,
/// and block in [`wait_child`] until it exits or `cfg.deadline` passes:
/// no sampling interval is added to its wall time or to the kill, and
/// its pipes are read while it runs, so no amount of output can wedge it.
/// Returns the classified outcome plus the stderr read by the time the
/// child was reaped — EOF is never waited for, so an orphan on the pipes
/// cannot hold the supervisor past the child's exit.
fn run_child(
    cfg: &SuiteConfig,
    cell: &Cell,
    class: Class,
    rung: usize,
    inject: Option<&str>,
) -> (AttemptOutcome, String) {
    let mut cmd = Command::new(&cfg.npb_bin);
    cmd.arg(&cell.bench)
        .arg("--class")
        .arg(class.to_string())
        .arg("--style")
        .arg(cell.style.label())
        .arg("--threads")
        .arg(rung.to_string())
        .arg("--json")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    if let Some(spec) = inject {
        cmd.arg("--inject").arg(spec);
    }
    // Child-side containment: the driver applies these caps to itself
    // before touching a benchmark, so the spawn needs no pre_exec.
    for arg in cfg.limits.to_args() {
        cmd.arg(arg);
    }
    if let Some(ms) = cfg.child_timeout_ms {
        cmd.arg("--timeout").arg(ms.to_string());
    }
    if cfg.sdc_guard {
        cmd.arg("--sdc-guard");
    }
    if let Some(k) = cfg.checkpoint_every {
        cmd.arg("--checkpoint-every").arg(k.to_string());
    }
    if let Some(us) = cfg.spin_us {
        cmd.arg("--spin-us").arg(us.to_string());
    }
    if let Some(b) = &cfg.backend {
        cmd.arg("--backend").arg(b);
    }
    if let Some(s) = &cfg.sched {
        cmd.arg("--sched").arg(s);
    }
    // The profile data the supervisor wants rides the --json record;
    // the export file itself is throwaway (unique per attempt so
    // concurrent sweeps cannot collide) and removed after the reap.
    let trace_path = cfg.trace.then(|| {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("npb-suite-trace-{}-{n}.json", std::process::id()))
    });
    if let Some(p) = &trace_path {
        cmd.arg("--trace").arg(p);
    }
    // Best-effort removal on every exit path out of this function.
    struct RemoveOnDrop(Option<PathBuf>);
    impl Drop for RemoveOnDrop {
        fn drop(&mut self) {
            if let Some(p) = &self.0 {
                std::fs::remove_file(p).ok();
            }
        }
    }
    let _cleanup = RemoveOnDrop(trace_path);

    let started = Instant::now();
    let mut child = match spawn_past_text_busy(&mut cmd) {
        Ok(c) => c,
        Err(e) => return (AttemptOutcome::SpawnFailed(e.to_string()), String::new()),
    };

    let w = match wait(&mut child, cfg.deadline) {
        Ok(w) => w,
        Err(e) => return (AttemptOutcome::SpawnFailed(format!("wait failed: {e}")), String::new()),
    };
    let stderr = String::from_utf8_lossy(&w.stderr).into_owned();
    if w.killed {
        return (AttemptOutcome::DeadlineKilled { after: started.elapsed() }, stderr);
    }
    let stdout = String::from_utf8_lossy(&w.stdout);
    let mem_capped = cfg.limits.mem_limit_mb.is_some();
    (classify_exit(w.status, ChildReport::last_in(&stdout), mem_capped), stderr)
}

/// [`wait_child`] — or, when a unit test asks, its no-pidfd fallback.
fn wait(child: &mut Child, deadline: Option<Duration>) -> std::io::Result<Waited> {
    #[cfg(test)]
    if tests::SAMPLED.get() {
        return npb_core::child::wait_child_on(child, deadline, None);
    }
    wait_child(child, deadline)
}

/// `cmd.spawn()`, retried for up to 50 ms while `exec` answers `ETXTBSY`.
///
/// "Text file busy" means some process still holds the binary open for
/// writing. That is transient in the two ways it reaches a supervisor: a
/// binary deployed a moment ago, or — the unit tests' stubs — another
/// thread of this process forking between the write and this `exec`, so
/// that its not-yet-exec'd child briefly inherits the writer's descriptor.
fn spawn_past_text_busy(cmd: &mut Command) -> std::io::Result<Child> {
    const ETXTBSY: i32 = 26;
    for _ in 0..10 {
        match cmd.spawn() {
            Err(e) if e.raw_os_error() == Some(ETXTBSY) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            spawned => return spawned,
        }
    }
    cmd.spawn()
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_core::{Class, Style};

    fn cfg(npb_bin: &str) -> SuiteConfig {
        SuiteConfig {
            npb_bin: PathBuf::from(npb_bin),
            deadline: Some(Duration::from_millis(500)),
            retries: 0,
            inject: None,
            child_timeout_ms: None,
            sdc_guard: false,
            checkpoint_every: None,
            spin_us: None,
            backend: None,
            sched: None,
            trace: false,
            degrade: true,
            backoff_base_ms: 0,
            seed: 1,
            limits: ResourceLimits::default(),
        }
    }

    fn cell(threads: usize) -> Cell {
        Cell { bench: "EP".into(), class: Class::S, style: Style::Opt, threads }
    }

    #[test]
    fn ladder_halves_down_to_serial() {
        assert_eq!(ladder(8), vec![8, 4, 2, 1, 0]);
        assert_eq!(ladder(6), vec![6, 3, 1, 0]);
        assert_eq!(ladder(4), vec![4, 2, 1, 0]);
        assert_eq!(ladder(1), vec![1, 0]);
        assert_eq!(ladder(0), vec![0]);
    }

    #[test]
    fn spawn_failure_is_fatal_and_journaled_once() {
        let out = run_cell(&cfg("/nonexistent/npb-binary"), &cell(2), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Failed("spawn-failed"));
        assert_eq!(out.attempts, 1, "fatal outcomes must not retry");
        assert_eq!(out.kills, 0);
    }

    /// Write an executable stub script that ignores its npb-shaped
    /// arguments and runs `body`, standing in for a child process.
    #[cfg(unix)]
    fn stub(name: &str, body: &str) -> PathBuf {
        use std::os::unix::fs::PermissionsExt;
        let path =
            std::env::temp_dir().join(format!("npb-harness-stub-{}-{name}.sh", std::process::id()));
        std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path
    }

    thread_local! {
        /// Makes this thread's `run_child` calls use the sampling fallback.
        pub(super) static SAMPLED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Run `body` on the event-driven wait, then again on the sampling
    /// loop a kernel without `pidfd_open` gets: one body, so one set of
    /// behaviours; `sampled` tells it which bound on speed applies.
    fn on_both_waits(body: impl Fn(bool)) {
        for sampled in [false, true] {
            SAMPLED.set(sampled);
            body(sampled);
        }
        SAMPLED.set(false);
    }

    const VERIFIED: &str = "{\\\"name\\\":\\\"EP\\\",\\\"class\\\":\\\"S\\\",\\\"style\\\":\\\"opt\\\",\\\"threads\\\":2,\\\"size\\\":[1,0,0],\\\"niter\\\":1,\\\"time_secs\\\":0.1,\\\"mops\\\":1,\\\"verified\\\":\\\"success\\\",\\\"attempts\\\":1}";

    #[cfg(unix)]
    #[test]
    fn a_chatty_child_is_drained_not_deadlocked() {
        // 200 000 bytes of stderr (a backtrace, a watchdog dump) are three
        // pipe buffers: a supervisor that reads only after the exit leaves
        // the child blocked in `write` until the deadline kills it.
        let bin = stub(
            "chatty",
            &format!("head -c 200000 /dev/zero | tr '\\0' x >&2; echo \"{VERIFIED}\""),
        );
        let mut c = cfg(bin.to_str().unwrap());
        c.deadline = Some(Duration::from_secs(3));
        on_both_waits(|_| {
            let started = Instant::now();
            let (outcome, stderr) = run_child(&c, &cell(2), Class::S, 2, None);
            assert!(matches!(outcome, AttemptOutcome::Verified(_)), "got {outcome:?}");
            assert_eq!(stderr.len(), 200_000);
            assert!(started.elapsed() < Duration::from_secs(2), "took {:?}", started.elapsed());
        });
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn an_orphan_on_the_pipes_cannot_hold_run_child() {
        // The shape of a SIGKILLed procs-backend `npb`: the child is gone,
        // its rank workers inherited stderr and idle on. Waiting for EOF
        // would wait for them, past a deadline that only bounds the child.
        let bin = stub("orphan", "echo dying >&2; sleep 4 & exit 1");
        let mut c = cfg(bin.to_str().unwrap());
        c.deadline = Some(Duration::from_secs(1));
        on_both_waits(|_| {
            let started = Instant::now();
            let (outcome, stderr) = run_child(&c, &cell(2), Class::S, 2, None);
            assert!(matches!(outcome, AttemptOutcome::RegionFailed), "got {outcome:?}");
            assert_eq!(stderr, "dying\n", "what was already written is kept");
            assert!(started.elapsed() < Duration::from_secs(1), "took {:?}", started.elapsed());
        });
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn a_short_child_returns_under_the_old_quantum() {
        // Sampled every 10 ms, no child could be seen to finish in under
        // 10 ms; waited on, a 1 ms child costs its own 1-2 ms. The minimum
        // of 20 is load-proof: one quiet run in twenty is enough.
        let bin = stub("short", "exit 2");
        let c = cfg(bin.to_str().unwrap());
        on_both_waits(|sampled| {
            let min = (0..20)
                .map(|_| {
                    let started = Instant::now();
                    let (outcome, _) = run_child(&c, &cell(2), Class::S, 2, None);
                    assert!(matches!(outcome, AttemptOutcome::UsageError), "got {outcome:?}");
                    started.elapsed()
                })
                .min()
                .unwrap();
            let bound = Duration::from_millis(if sampled { 20 } else { 8 });
            assert!(min < bound, "fastest of 20 one-line children took {min:?}");
        });
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn deadline_kill_lands_within_50_ms_of_the_deadline() {
        let bin = stub("late", "sleep 60");
        let mut c = cfg(bin.to_str().unwrap());
        c.deadline = Some(Duration::from_millis(150));
        on_both_waits(|_| {
            let (outcome, _) = run_child(&c, &cell(2), Class::S, 2, None);
            let AttemptOutcome::DeadlineKilled { after } = outcome else {
                panic!("expected a deadline kill, got {outcome:?}");
            };
            assert!(after >= Duration::from_millis(150), "killed early, after {after:?}");
            assert!(after < Duration::from_millis(200), "killed late, after {after:?}");
        });
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn deadline_kills_and_reaps_a_hung_child() {
        let bin = stub("hang", "sleep 60");
        let mut c = cfg(bin.to_str().unwrap());
        c.deadline = Some(Duration::from_millis(150));
        let started = Instant::now();
        let (outcome, _) = run_child(&c, &cell(2), Class::S, 2, None);
        assert!(
            matches!(outcome, AttemptOutcome::DeadlineKilled { .. }),
            "expected a deadline kill, got {outcome:?}"
        );
        assert!(outcome.is_kill());
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "kill-then-reap must not wait out the child"
        );
        std::fs::remove_file(&bin).ok();
    }

    /// Eight threads each write a fresh stub and exec it at once: every
    /// fork happens while some other thread's stub is open for writing,
    /// which is how `exec` comes to answer `ETXTBSY`. No attempt may
    /// surface it as a spawn failure.
    #[cfg(unix)]
    #[test]
    fn concurrent_write_then_spawn_never_fails_text_busy() {
        let go = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let go = &go;
                scope.spawn(move || {
                    go.wait();
                    for round in 0..25 {
                        let bin = stub(&format!("busy-{t}-{round}"), "exit 2");
                        let (outcome, _) =
                            run_child(&cfg(bin.to_str().unwrap()), &cell(2), Class::S, 2, None);
                        std::fs::remove_file(&bin).ok();
                        assert!(
                            !matches!(outcome, AttemptOutcome::SpawnFailed(_)),
                            "thread {t} round {round}: {outcome:?}"
                        );
                    }
                });
            }
        });
    }

    #[cfg(unix)]
    #[test]
    fn hung_child_walks_the_ladder_into_quarantine() {
        let bin = stub("quarantine", "sleep 60");
        let mut c = cfg(bin.to_str().unwrap());
        c.deadline = Some(Duration::from_millis(100));
        let out = run_cell(&c, &cell(2), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Quarantined);
        // Ladder 2 -> 1 -> serial, one attempt each (retries = 0).
        assert_eq!(out.attempts, 3);
        assert_eq!(out.kills, 3);
        assert_eq!(out.final_threads, 0, "quarantine happens only after the serial rung");
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn degrade_off_pins_the_requested_width() {
        // The per-job fault-policy knob: with the ladder off, a
        // region-class failure burns its retries at the requested width
        // and goes straight to quarantine — no degraded-width attempts.
        let bin = stub("nodegrade", "exit 1");
        let mut c = cfg(bin.to_str().unwrap());
        c.degrade = false;
        c.retries = 1;
        let out = run_cell(&c, &cell(4), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Quarantined);
        assert_eq!(out.attempts, 2, "retries at the pinned width only");
        assert_eq!(out.final_threads, 4, "no ladder descent happened");
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn exit_code_taxonomy_reaches_cell_status() {
        // A child that always exits 1 without a JSON record is a region
        // failure: region failures walk the ladder and end quarantined.
        let bin = stub("exit1", "exit 1");
        let out = run_cell(&cfg(bin.to_str().unwrap()), &cell(2), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Quarantined);
        assert_eq!(out.kills, 0);
        std::fs::remove_file(&bin).ok();

        // Exit 2 (usage) is fatal immediately — the supervisor built
        // the command line, so retrying is pointless.
        let bin = stub("exit2", "exit 2");
        let out = run_cell(&cfg(bin.to_str().unwrap()), &cell(2), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Failed("usage-error"));
        assert_eq!(out.attempts, 1);
        std::fs::remove_file(&bin).ok();

        // A verification failure (exit 1 + JSON record) retries at the
        // same width, then fails without walking the ladder.
        let record = "{\\\"name\\\":\\\"EP\\\",\\\"class\\\":\\\"S\\\",\\\"style\\\":\\\"opt\\\",\\\"threads\\\":2,\\\"size\\\":[1,0,0],\\\"niter\\\":1,\\\"time_secs\\\":0.1,\\\"mops\\\":1,\\\"verified\\\":\\\"failure\\\",\\\"attempts\\\":1}";
        let bin = stub("verfail", &format!("echo \"{record}\"; exit 1"));
        let mut c = cfg(bin.to_str().unwrap());
        c.retries = 1;
        let out = run_cell(&c, &cell(2), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Failed("verification-failed"));
        assert_eq!(out.attempts, 2, "one retry at the same width, no ladder");
        assert_eq!(out.final_threads, 2);
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn oom_kill_degrades_class_before_threads() {
        // A stub that dies SIGKILL-style at class W but verifies at
        // class S — the OOM shape: the requested problem blows the cap,
        // the degraded one fits. The memory cap must be armed for the
        // SIGKILL to read as oom-killed.
        let bin = stub(
            "oomclass",
            &format!("case \"$*\" in *'--class S'*) echo \"{VERIFIED}\";; *) kill -9 $$;; esac"),
        );
        let mut c = cfg(bin.to_str().unwrap());
        c.limits.mem_limit_mb = Some(1 << 20); // armed (huge; the stub fakes the kill)
        let mut w_cell = cell(2);
        w_cell.class = Class::W;
        let out = run_cell(&c, &w_cell, 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Verified);
        assert_eq!(out.attempts, 2, "W oom-killed, then S verified — no thread descent");
        assert_eq!(out.kills, 1, "the oom kill counts as a kill");
        assert_eq!(out.final_threads, 2, "width untouched by the class ladder");
        assert_eq!(out.final_class, Class::S, "the class ladder did the degrading");
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn unarmed_sigkill_stays_on_the_thread_ladder() {
        // The same death without a memory cap is a generic signal:
        // no class degradation, the thread ladder handles it.
        let bin = stub("plainkill", "kill -9 $$");
        let mut c = cfg(bin.to_str().unwrap());
        c.retries = 0;
        let out = run_cell(&c, &cell(2), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Quarantined);
        assert_eq!(out.final_class, Class::S, "class never degraded (it started at S)");
        assert_eq!(out.attempts, 3, "thread ladder 2 → 1 → serial");
        std::fs::remove_file(&bin).ok();
    }

    #[cfg(unix)]
    #[test]
    fn cpu_limit_exhausts_the_class_ladder_then_quarantines() {
        // SIGXCPU at class S has no lower class: the cell falls through
        // to the thread ladder and ends quarantined, with the attempts
        // journaled as cpu-limit (not generic signaled).
        let bin = stub("xcpu", "kill -XCPU $$");
        let c = cfg(bin.to_str().unwrap());
        let out = run_cell(&c, &cell(2), 0, None).unwrap();
        assert_eq!(out.status, CellStatus::Quarantined);
        assert_eq!(out.kills, out.attempts, "every attempt was a resource kill");
        std::fs::remove_file(&bin).ok();
    }
}
