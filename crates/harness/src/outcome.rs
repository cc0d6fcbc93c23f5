//! The supervisor's failure taxonomy.
//!
//! The in-process runtime already classifies *why* a child died into its
//! exit code (0 verified, 1 verification/region failure, 2 usage, 3
//! watchdog — see DESIGN.md §6). The supervisor adds the outcomes only
//! an outside observer can produce: killed-on-deadline, killed-by-signal
//! and failed-to-spawn. Together the two layers form the unified
//! taxonomy in README's failure-model table.

use std::process::ExitStatus;
use std::time::Duration;

use npb_core::exit::{USAGE_EXIT_CODE, WATCHDOG_EXIT_CODE};
use npb_core::json::Json;
use npb_core::rlimit::{SIGABRT, SIGKILL, SIGXCPU};
use npb_core::RegionProfile;

/// What one child process attempt produced, as observed from outside.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// Exit 0 and the `--json` record says `verified: success`.
    Verified(ChildReport),
    /// Exit 1 with a parsed `--json` record: the benchmark *ran* but its
    /// verification comparison failed (numerics, not infrastructure).
    VerificationFailed(ChildReport),
    /// Exit 1 without a result record: a parallel region failed before
    /// the benchmark could report (worker panic beyond the child's own
    /// retry budget).
    RegionFailed,
    /// Exit 2: the child rejected its own command line. Never retried —
    /// the supervisor built that command line, so a retry would fail
    /// identically.
    UsageError,
    /// Exit 3 ([`npb_core::exit::WATCHDOG_EXIT_CODE`]): the child's
    /// in-process watchdog turned a hung region into process death.
    WatchdogExit,
    /// The supervisor's wall-clock deadline expired and the child was
    /// killed and reaped — the fault class the in-process watchdog
    /// cannot survive (it can only die with the process).
    DeadlineKilled {
        /// How long the child had been running when it was killed.
        after: Duration,
    },
    /// The child died to a signal the supervisor did not send (SIGSEGV,
    /// SIGABRT from a Rust abort, ...).
    Signaled(i32),
    /// The child exhausted its memory cap: SIGKILL from a host OOM
    /// killer, or SIGABRT from Rust's allocation-failure handler under
    /// `RLIMIT_AS` — classified only when a memory cap was armed
    /// (`--mem-limit-mb`), because a foreign SIGKILL on an uncapped
    /// child could equally be an operator.
    OomKilled(i32),
    /// The child exhausted `RLIMIT_CPU` (SIGXCPU, shell code 152).
    /// Unconditional: the kernel sends SIGXCPU for no other reason.
    CpuLimit,
    /// The child exited with a code outside the driver's documented set.
    UnknownExit(i32),
    /// The child process could not be spawned at all.
    SpawnFailed(String),
}

impl AttemptOutcome {
    /// Short machine-readable tag, used in the run manifest.
    pub fn tag(&self) -> &'static str {
        match self {
            AttemptOutcome::Verified(_) => "verified",
            AttemptOutcome::VerificationFailed(_) => "verification-failed",
            AttemptOutcome::RegionFailed => "region-failed",
            AttemptOutcome::UsageError => "usage-error",
            AttemptOutcome::WatchdogExit => "watchdog-exit",
            AttemptOutcome::DeadlineKilled { .. } => "deadline-killed",
            AttemptOutcome::Signaled(_) => "signaled",
            AttemptOutcome::OomKilled(_) => "oom-killed",
            AttemptOutcome::CpuLimit => "cpu-limit",
            AttemptOutcome::UnknownExit(_) => "unknown-exit",
            AttemptOutcome::SpawnFailed(_) => "spawn-failed",
        }
    }

    /// Was this attempt a kill (deadline, foreign signal, or a resource
    /// cap the kernel enforced with a fatal signal)?
    pub fn is_kill(&self) -> bool {
        matches!(
            self,
            AttemptOutcome::DeadlineKilled { .. }
                | AttemptOutcome::Signaled(_)
                | AttemptOutcome::OomKilled(_)
                | AttemptOutcome::CpuLimit
        )
    }

    /// How the supervisor should react to this attempt.
    pub fn disposition(&self) -> Disposition {
        match self {
            AttemptOutcome::Verified(_) => Disposition::Done,
            // Numerics failed but the infrastructure worked: retrying at
            // the same width is meaningful (an injected NaN is one-shot),
            // but walking the thread ladder is not — degradation exists
            // for *region* failures.
            AttemptOutcome::VerificationFailed(_) => Disposition::RetrySameWidth,
            AttemptOutcome::RegionFailed
            | AttemptOutcome::WatchdogExit
            | AttemptOutcome::DeadlineKilled { .. }
            | AttemptOutcome::Signaled(_)
            | AttemptOutcome::UnknownExit(_) => Disposition::RetryOrDegrade,
            // Resource exhaustion: fewer threads cannot shrink the
            // problem's footprint or its total CPU seconds, so the
            // thread ladder is the wrong knob. Degrade the *class*
            // (C→B→…→S) — a smaller problem — before touching width.
            AttemptOutcome::OomKilled(_) | AttemptOutcome::CpuLimit => {
                Disposition::RetryOrDegradeClass
            }
            AttemptOutcome::UsageError | AttemptOutcome::SpawnFailed(_) => Disposition::Fatal,
        }
    }
}

/// Supervisor reaction classes for an attempt outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The cell is complete.
    Done,
    /// Retry within the current rung's budget; do not descend the ladder.
    RetrySameWidth,
    /// Retry within the current rung's budget, then descend the
    /// degradation ladder (threads N → N/2 → … → serial).
    RetryOrDegrade,
    /// Retry within the current rung's budget, then descend the *class*
    /// ladder (C → B → A → W → S) — the resource-exhaustion rule:
    /// shrinking the problem, not the team, is what fits a memory or
    /// CPU cap.
    RetryOrDegradeClass,
    /// Stop immediately; no retry can change the outcome.
    Fatal,
}

/// The parsed `npb --json` result record a child printed on stdout.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    pub name: String,
    pub class: String,
    pub style: String,
    pub threads: usize,
    pub verified: String,
    pub mops: f64,
    pub time_secs: f64,
    /// The child's *own* attempt count (its in-process `--retries` loop).
    pub attempts: u64,
    /// SDC detections the child's in-computation guard answered with a
    /// checkpoint rollback (`--sdc-guard`); 0 when the guard was off.
    pub recoveries: u64,
    /// Per-region profile from the child's `--trace` run; empty when
    /// the child ran untraced (the record then omits the field).
    pub regions: Vec<RegionProfile>,
    /// Per-rank dispositions from a `--backend procs` child ("done",
    /// "killed", "exit:N", "signal:N"); empty for a threads-backend
    /// child (the record then omits the field).
    pub rank_dispositions: Vec<String>,
}

/// Parse a `regions` array (`[{"name":..,"secs":..,"imbalance":..}]`)
/// as written by `BenchReport::to_json` and the manifest's cell
/// records. Malformed entries are dropped, not fatal: regions are
/// observability, never correctness.
pub fn parse_regions(v: Option<&Json>) -> Vec<RegionProfile> {
    match v {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|r| {
                Some(RegionProfile {
                    name: r.get_str("name")?.to_string(),
                    secs: r.get_num("secs")?,
                    imbalance: r.get_num("imbalance")?,
                })
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Parse a JSON array of strings (non-strings dropped, absent/other
/// shapes empty) — the `rank_dispositions` field of child records and
/// manifest cell lines.
pub fn parse_strings(v: Option<&Json>) -> Vec<String> {
    match v {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|d| match d {
                Json::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

impl ChildReport {
    /// Parse the JSON record emitted by `BenchReport::to_json`.
    pub fn from_json(v: &Json) -> Option<ChildReport> {
        Some(ChildReport {
            name: v.get_str("name")?.to_string(),
            class: v.get_str("class")?.to_string(),
            style: v.get_str("style")?.to_string(),
            threads: v.get_uint("threads")? as usize,
            verified: v.get_str("verified")?.to_string(),
            mops: v.get_num("mops")?,
            time_secs: v.get_num("time_secs")?,
            attempts: v.get_uint("attempts")?,
            // Absent in records from pre-guard drivers; absent is 0.
            recoveries: v.get_uint("recoveries").unwrap_or(0),
            // Absent in untraced records; absent is empty.
            regions: parse_regions(v.get("regions")),
            // Absent in threads-backend records; absent is empty.
            rank_dispositions: parse_strings(v.get("rank_dispositions")),
        })
    }

    /// Find and parse the last result record in a child's stdout (the
    /// banner lines are ignored; the record is the only line starting
    /// with `{`).
    pub fn last_in(stdout: &str) -> Option<ChildReport> {
        stdout
            .lines()
            .rev()
            .map(str::trim)
            .filter(|l| l.starts_with('{'))
            .find_map(|l| Json::parse(l).ok().as_ref().and_then(ChildReport::from_json))
    }
}

/// Classify a reaped child exit status (not deadline-killed, which the
/// supervisor classifies itself before reaping).
///
/// `mem_limited` says whether the attempt ran under `--mem-limit-mb`:
/// only then are SIGKILL (a host OOM killer; shell code 137) and
/// SIGABRT (Rust's allocation-failure abort under `RLIMIT_AS`; 134)
/// read as `oom-killed` — an uncapped child dying to SIGKILL could
/// equally be an operator, and stays generic `signaled`. SIGXCPU
/// (shell code 152) is always `cpu-limit`: the kernel sends it for no
/// other reason than an expired `RLIMIT_CPU`.
pub fn classify_exit(
    status: ExitStatus,
    report: Option<ChildReport>,
    mem_limited: bool,
) -> AttemptOutcome {
    // A death signal reaches us either raw (code() is None, signal()
    // set) or cooked into the 128+signum shell convention by a child
    // that caught it (the driver's signal watcher) or an intermediate
    // shell. Classify both spellings identically.
    let classify_signal = |sig: i32| -> AttemptOutcome {
        if sig == SIGXCPU {
            AttemptOutcome::CpuLimit
        } else if mem_limited && (sig == SIGKILL || sig == SIGABRT) {
            AttemptOutcome::OomKilled(sig)
        } else {
            AttemptOutcome::Signaled(sig)
        }
    };
    match status.code() {
        Some(0) => match report {
            Some(r) if r.verified == "success" => AttemptOutcome::Verified(r),
            // Exit 0 without a parseable record (e.g. the child was run
            // without --json) is still a verified run per the driver's
            // exit-code contract, but the supervisor insists on the
            // structured channel: treat it as an unknown exit so it is
            // surfaced rather than silently trusted.
            _ => AttemptOutcome::UnknownExit(0),
        },
        Some(1) => match report {
            Some(r) => AttemptOutcome::VerificationFailed(r),
            None => AttemptOutcome::RegionFailed,
        },
        Some(c) if c == USAGE_EXIT_CODE => AttemptOutcome::UsageError,
        Some(c) if c == WATCHDOG_EXIT_CODE => AttemptOutcome::WatchdogExit,
        Some(c) if c > 128 && c <= 128 + 64 => classify_signal(c - 128),
        Some(c) => AttemptOutcome::UnknownExit(c),
        None => {
            #[cfg(unix)]
            {
                use std::os::unix::process::ExitStatusExt;
                classify_signal(status.signal().unwrap_or(0))
            }
            #[cfg(not(unix))]
            classify_signal(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    fn status(raw: i32) -> ExitStatus {
        use std::os::unix::process::ExitStatusExt;
        ExitStatus::from_raw(raw)
    }

    fn report(verified: &str) -> ChildReport {
        ChildReport {
            name: "EP".into(),
            class: "S".into(),
            style: "opt".into(),
            threads: 4,
            verified: verified.into(),
            mops: 1.0,
            time_secs: 0.1,
            attempts: 1,
            recoveries: 0,
            regions: Vec::new(),
            rank_dispositions: Vec::new(),
        }
    }

    #[cfg(unix)]
    #[test]
    fn exit_codes_map_to_the_documented_taxonomy() {
        // Wait status encodes the exit code in the high byte.
        let r = report("success");
        assert_eq!(
            classify_exit(status(0 << 8), Some(r.clone()), false),
            AttemptOutcome::Verified(r)
        );
        assert_eq!(
            classify_exit(status(1 << 8), Some(report("failure")), false),
            AttemptOutcome::VerificationFailed(report("failure"))
        );
        assert_eq!(classify_exit(status(1 << 8), None, false), AttemptOutcome::RegionFailed);
        assert_eq!(classify_exit(status(2 << 8), None, false), AttemptOutcome::UsageError);
        assert_eq!(classify_exit(status(3 << 8), None, false), AttemptOutcome::WatchdogExit);
        assert_eq!(classify_exit(status(77 << 8), None, false), AttemptOutcome::UnknownExit(77));
        // Low byte = terminating signal (9 = SIGKILL); without a memory
        // cap armed a foreign SIGKILL stays generic.
        assert_eq!(classify_exit(status(9), None, false), AttemptOutcome::Signaled(9));
    }

    #[cfg(unix)]
    #[test]
    fn exit_zero_without_a_record_is_not_trusted() {
        assert_eq!(classify_exit(status(0), None, false), AttemptOutcome::UnknownExit(0));
        assert_eq!(
            classify_exit(status(0), Some(report("failure")), false),
            AttemptOutcome::UnknownExit(0)
        );
    }

    #[cfg(unix)]
    #[test]
    fn resource_exhaustion_maps_to_first_class_outcomes() {
        // SIGXCPU, raw (signal 24) and cooked (exit 128+24=152): always
        // cpu-limit — the kernel sends it for no other reason.
        assert_eq!(classify_exit(status(24), None, false), AttemptOutcome::CpuLimit);
        assert_eq!(classify_exit(status(152 << 8), None, false), AttemptOutcome::CpuLimit);
        // SIGKILL / SIGABRT with a memory cap armed: oom-killed, both
        // raw and cooked (137, 134).
        assert_eq!(classify_exit(status(9), None, true), AttemptOutcome::OomKilled(9));
        assert_eq!(classify_exit(status(137 << 8), None, true), AttemptOutcome::OomKilled(9));
        assert_eq!(classify_exit(status(6), None, true), AttemptOutcome::OomKilled(6));
        assert_eq!(classify_exit(status(134 << 8), None, true), AttemptOutcome::OomKilled(6));
        // Without the cap, the same deaths stay generic signaled (an
        // operator's kill must not masquerade as containment).
        assert_eq!(classify_exit(status(9), None, false), AttemptOutcome::Signaled(9));
        assert_eq!(classify_exit(status(137 << 8), None, false), AttemptOutcome::Signaled(9));
        // Tags and dispositions: resource exhaustion degrades the
        // *class*, not the thread ladder.
        assert_eq!(AttemptOutcome::OomKilled(9).tag(), "oom-killed");
        assert_eq!(AttemptOutcome::CpuLimit.tag(), "cpu-limit");
        assert_eq!(AttemptOutcome::OomKilled(9).disposition(), Disposition::RetryOrDegradeClass);
        assert_eq!(AttemptOutcome::CpuLimit.disposition(), Disposition::RetryOrDegradeClass);
        assert!(AttemptOutcome::OomKilled(9).is_kill());
        assert!(AttemptOutcome::CpuLimit.is_kill());
    }

    #[test]
    fn dispositions_route_retry_and_degrade() {
        assert_eq!(AttemptOutcome::Verified(report("success")).disposition(), Disposition::Done);
        assert_eq!(
            AttemptOutcome::VerificationFailed(report("failure")).disposition(),
            Disposition::RetrySameWidth
        );
        for o in [
            AttemptOutcome::RegionFailed,
            AttemptOutcome::WatchdogExit,
            AttemptOutcome::DeadlineKilled { after: Duration::from_millis(5) },
            AttemptOutcome::Signaled(9),
            AttemptOutcome::UnknownExit(42),
        ] {
            assert_eq!(o.disposition(), Disposition::RetryOrDegrade, "{o:?}");
        }
        assert_eq!(AttemptOutcome::UsageError.disposition(), Disposition::Fatal);
        assert_eq!(AttemptOutcome::SpawnFailed("no".into()).disposition(), Disposition::Fatal);
    }

    #[test]
    fn child_report_parses_the_driver_record() {
        let line = r#"{"name":"CG","class":"S","style":"opt","threads":4,"size":[1400,0,0],"niter":15,"time_secs":0.123,"mops":456.7,"verified":"success","attempts":2,"recoveries":1,"checkpoint_count":8,"checkpoint_overhead_s":0.001}"#;
        let stdout = format!("\n\n CG Benchmark Completed.\n...\n{line}\n");
        let r = ChildReport::last_in(&stdout).expect("record found");
        assert_eq!(r.name, "CG");
        assert_eq!(r.threads, 4);
        assert_eq!(r.attempts, 2);
        assert_eq!(r.verified, "success");
        assert_eq!(r.recoveries, 1);
    }

    #[test]
    fn child_report_tolerates_records_without_recovery_fields() {
        let line = r#"{"name":"CG","class":"S","style":"opt","threads":4,"size":[1400,0,0],"niter":15,"time_secs":0.123,"mops":456.7,"verified":"success","attempts":2}"#;
        let r = ChildReport::last_in(line).expect("pre-guard record still parses");
        assert_eq!(r.recoveries, 0);
    }

    #[test]
    fn child_report_parses_region_profiles() {
        let line = r#"{"name":"CG","class":"S","style":"opt","threads":2,"size":[1400,0,0],"niter":15,"time_secs":0.1,"mops":456.7,"verified":"success","attempts":1,"recoveries":0,"checkpoint_count":0,"checkpoint_overhead_s":0,"regions":[{"name":"conj_grad","secs":0.09,"imbalance":1.25},{"name":"power_step","secs":0.001,"imbalance":1}]}"#;
        let r = ChildReport::last_in(line).expect("traced record parses");
        assert_eq!(r.regions.len(), 2);
        assert_eq!(r.regions[0].name, "conj_grad");
        assert_eq!(r.regions[0].secs, 0.09);
        assert_eq!(r.regions[0].imbalance, 1.25);
        // A malformed entry is dropped, the rest kept.
        let v = Json::parse(
            r#"{"regions":[{"name":"a","secs":1,"imbalance":1},{"secs":2,"imbalance":1}]}"#,
        )
        .unwrap();
        assert_eq!(parse_regions(v.get("regions")).len(), 1);
        assert!(parse_regions(None).is_empty());
    }

    #[test]
    fn missing_or_torn_record_is_none() {
        assert_eq!(ChildReport::last_in("banner only\n"), None);
        assert_eq!(ChildReport::last_in("{\"name\":\"CG\",\"cla"), None);
    }

    #[test]
    fn last_in_takes_the_last_whole_record_past_a_torn_line() {
        let rec = |t: usize| {
            format!(
                r#"{{"name":"EP","class":"S","style":"opt","threads":{t},"time_secs":0.1,"mops":1,"verified":"success","attempts":1}}"#
            )
        };
        let stdout = format!("{}\nbanner\n{}\n{{\"name\":\"EP\",\"thr\n", rec(2), rec(1));
        assert_eq!(ChildReport::last_in(&stdout).map(|r| r.threads), Some(1));
    }

    #[test]
    fn parse_strings_keeps_only_the_strings() {
        let v = Json::parse(r#"{"d":["done",9,"killed:9",null],"n":"done"}"#).unwrap();
        assert_eq!(parse_strings(v.get("d")), vec!["done", "killed:9"]);
        assert!(parse_strings(v.get("n")).is_empty(), "a bare string is not a list");
        assert!(parse_strings(None).is_empty());
    }
}
