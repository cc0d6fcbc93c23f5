//! The crash-safe run manifest: the suite supervisor's records over
//! [`npb_core::log`], which owns the durable record format and the
//! torn-tail rule. A supervisor killed at any instant (the acceptance
//! criterion SIGKILLs it mid-sweep) loses at most the record in flight,
//! and `--resume` reads back the rest.
//!
//! Three record kinds share the file, tagged by `"event"`:
//!
//! * `run` — one per supervisor invocation (sweep shape, seed, flags),
//!   so a manifest is self-describing;
//! * `attempt` — one per child process, including the kills: the
//!   journal is the audit trail that quarantined or killed cells are
//!   *reported, never silently dropped*;
//! * `cell` — the terminal outcome of a cell. Resume skips exactly the
//!   cells with a terminal record.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use npb_core::iofault::IoFaultPlan;
use npb_core::json::{json_escape, Json};
use npb_core::log::{self, AppendLog};
use npb_core::{Class, RegionProfile, Style};

use crate::outcome::{parse_regions, parse_strings, AttemptOutcome};

/// One point of the sweep: a (benchmark, class, style, threads) cell,
/// run in its own child process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cell {
    pub bench: String,
    pub class: Class,
    pub style: Style,
    /// Threads *requested* (the degradation ladder may finish lower).
    pub threads: usize,
}

impl Cell {
    /// Stable identity used for resume matching.
    pub fn key(&self) -> String {
        format!("{}/{}/{}/{}", self.bench, self.class, self.style.label(), self.threads)
    }

    fn json_fields(&self) -> String {
        format!(
            "\"bench\":\"{}\",\"class\":\"{}\",\"style\":\"{}\",\"threads\":{}",
            json_escape(&self.bench),
            self.class,
            self.style.label(),
            self.threads
        )
    }

    fn from_json(v: &Json) -> Option<Cell> {
        Some(Cell {
            bench: v.get_str("bench")?.to_string(),
            class: v.get_str("class")?.parse().ok()?,
            style: v.get_str("style")?.parse().ok()?,
            threads: v.get_uint("threads")? as usize,
        })
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} ", self.bench, self.class, self.style.label())?;
        if self.threads == 0 {
            write!(f, "serial")
        } else {
            write!(f, "{}t", self.threads)
        }
    }
}

/// The `[{"name":..,"secs":..,"imbalance":..},...]` JSON array fragment
/// of a manifest cell record — one writer, which [`parse_regions`]
/// inverts for the manifest reader and the supervisor alike.
pub fn regions_json(regions: &[RegionProfile]) -> String {
    let items: Vec<String> = regions
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"secs\":{},\"imbalance\":{}}}",
                json_escape(&r.name),
                r.secs,
                r.imbalance
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Terminal status of a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellStatus {
    /// A run verified (possibly after retries / ladder descent).
    Verified,
    /// Every attempt failed but the failure class never warranted the
    /// ladder (verification failures, fatal spawn/usage errors); the
    /// tag is the last attempt's outcome tag.
    Failed(&'static str),
    /// Region-class failures exhausted the whole degradation ladder
    /// down to serial; the cell is parked, reported, and the sweep
    /// moves on.
    Quarantined,
}

impl CellStatus {
    pub fn tag(&self) -> &'static str {
        match self {
            CellStatus::Verified => "verified",
            CellStatus::Failed(tag) => tag,
            CellStatus::Quarantined => "quarantined",
        }
    }
}

/// Terminal outcome of one cell, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    pub cell: Cell,
    pub status: CellStatus,
    /// Total child processes spawned for this cell.
    pub attempts: u64,
    /// How many of them the supervisor (or a foreign signal) killed.
    pub kills: u64,
    /// Thread count of the final attempt (ladder may have descended).
    pub final_threads: usize,
    /// Class of the final attempt: memory exhaustion (`oom-killed`)
    /// degrades *class* C→B→…→S before the thread ladder, so a cell can
    /// verify at a smaller problem than requested.
    pub final_class: Class,
    /// Mop/s of the verifying run, if any.
    pub mops: Option<f64>,
    /// Timed-section seconds of the verifying run, if any.
    pub time_secs: Option<f64>,
    /// SDC rollbacks the verifying child reported (`--sdc-guard`): a
    /// nonzero count marks a cell that verified *because* the
    /// in-computation guard healed it — the `recovered` dimension of
    /// the taxonomy.
    pub recoveries: u64,
    /// Per-region profile of the verifying run (`--trace` sweeps);
    /// empty when the children ran untraced. This is the aggregate the
    /// scalability table is built from on read-back.
    pub regions: Vec<RegionProfile>,
    /// Per-rank dispositions of the verifying run (`--backend procs`
    /// sweeps): what each worker process's final state was ("done",
    /// "killed", "exit:N", "signal:N"). Empty for threads-backend runs.
    pub rank_dispositions: Vec<String>,
    /// Loop-scheduling policy the cell ran under ("static", "guided" or
    /// "feedback"). Journaled per cell so mixed manifests stay
    /// attributable; absent in pre-sched journals (= static).
    pub sched: String,
}

/// The manifest writer, over an [`AppendLog`] so `--io-inject` can prove
/// the resume contract under a hostile disk: a failed append loses at
/// most the in-flight record, the supervisor surfaces a structured
/// `io-degraded` error, and `--resume` against the surviving prefix
/// completes the sweep.
pub struct Manifest {
    log: AppendLog,
}

impl Manifest {
    /// Create (or truncate) a fresh manifest.
    pub fn create(path: &Path) -> std::io::Result<Manifest> {
        Manifest::create_with(path, None)
    }

    /// Create with an optional deterministic fault-injection plan.
    pub fn create_with(path: &Path, inject: Option<IoFaultPlan>) -> std::io::Result<Manifest> {
        Ok(Manifest { log: AppendLog::create(path, "manifest", inject)? })
    }

    /// Open a manifest for appending (resume).
    pub fn append(path: &Path) -> std::io::Result<Manifest> {
        Manifest::append_with(path, None)
    }

    /// Append with an optional deterministic fault-injection plan.
    pub fn append_with(path: &Path, inject: Option<IoFaultPlan>) -> std::io::Result<Manifest> {
        Ok(Manifest { log: AppendLog::open(path, "manifest", inject)? })
    }

    /// Journal the start of a supervisor invocation.
    pub fn run_header(&mut self, cells: usize, seed: u64, resumed: bool) -> std::io::Result<()> {
        self.log.record(&format!(
            "{{\"event\":\"run\",\"cells\":{cells},\"seed\":{seed},\"resumed\":{resumed}}}"
        ))
    }

    /// Journal one child-process attempt (including kills).
    pub fn attempt(
        &mut self,
        cell: &Cell,
        attempt: u64,
        threads: usize,
        outcome: &AttemptOutcome,
        elapsed_ms: u64,
    ) -> std::io::Result<()> {
        self.log.record(&format!(
            "{{\"event\":\"attempt\",{},\"attempt\":{attempt},\"run_threads\":{threads},\
             \"outcome\":\"{}\",\"elapsed_ms\":{elapsed_ms}}}",
            cell.json_fields(),
            outcome.tag()
        ))
    }

    /// Journal a cell's terminal outcome. This is the record resume
    /// keys on.
    pub fn cell(&mut self, out: &CellOutcome) -> std::io::Result<()> {
        let mut extra = String::new();
        if let Some(m) = out.mops {
            extra.push_str(&format!(",\"mops\":{m}"));
        }
        if let Some(t) = out.time_secs {
            extra.push_str(&format!(",\"time_secs\":{t}"));
        }
        if !out.regions.is_empty() {
            extra.push_str(&format!(",\"regions\":{}", regions_json(&out.regions)));
        }
        if !out.rank_dispositions.is_empty() {
            let items: Vec<String> =
                out.rank_dispositions.iter().map(|d| format!("\"{}\"", json_escape(d))).collect();
            extra.push_str(&format!(",\"rank_dispositions\":[{}]", items.join(",")));
        }
        if !out.sched.is_empty() {
            extra.push_str(&format!(",\"sched\":\"{}\"", json_escape(&out.sched)));
        }
        self.log.record(&format!(
            "{{\"event\":\"cell\",{},\"outcome\":\"{}\",\"attempts\":{},\"kills\":{},\
             \"final_threads\":{},\"final_class\":\"{}\",\"recoveries\":{}{extra}}}",
            out.cell.json_fields(),
            out.status.tag(),
            out.attempts,
            out.kills,
            out.final_threads,
            out.final_class,
            out.recoveries
        ))
    }
}

/// What a resume pass learned from an existing manifest.
#[derive(Debug, Default)]
pub struct ResumeState {
    /// Keys ([`Cell::key`]) of cells with a terminal record.
    pub completed: BTreeSet<String>,
    /// Terminal records, in journal order (for the final summary).
    pub outcomes: Vec<CellOutcome>,
    /// Lines that did not parse — the torn tail of a killed run (any
    /// count above 1 suggests the file was damaged by something other
    /// than a crash mid-append, so the caller warns).
    pub torn_lines: usize,
}

/// Read a manifest back for `--resume`. A missing manifest is an error:
/// resuming names a run that must exist.
pub fn read_manifest(path: &Path) -> std::io::Result<ResumeState> {
    let replay = log::replay(path)?;
    let mut state = ResumeState { torn_lines: replay.torn, ..ResumeState::default() };
    for v in replay.records {
        if v.get_str("event") != Some("cell") {
            continue;
        }
        let (Some(cell), Some(outcome)) = (Cell::from_json(&v), v.get_str("outcome")) else {
            state.torn_lines += 1;
            continue;
        };
        let status = match outcome {
            "verified" => CellStatus::Verified,
            "quarantined" => CellStatus::Quarantined,
            // Failed tags are attempt tags; keep the static name the
            // summary table prints.
            "verification-failed" => CellStatus::Failed("verification-failed"),
            "region-failed" => CellStatus::Failed("region-failed"),
            "usage-error" => CellStatus::Failed("usage-error"),
            "spawn-failed" => CellStatus::Failed("spawn-failed"),
            "oom-killed" => CellStatus::Failed("oom-killed"),
            "cpu-limit" => CellStatus::Failed("cpu-limit"),
            _ => CellStatus::Failed("unknown"),
        };
        state.completed.insert(cell.key());
        // Absent in pre-containment manifests; absent means the class
        // never degraded.
        let final_class =
            v.get_str("final_class").and_then(|c| c.parse().ok()).unwrap_or(cell.class);
        state.outcomes.push(CellOutcome {
            cell,
            status,
            attempts: v.get_uint("attempts").unwrap_or(0),
            kills: v.get_uint("kills").unwrap_or(0),
            final_threads: v.get_uint("final_threads").unwrap_or(0) as usize,
            final_class,
            mops: v.get_num("mops"),
            time_secs: v.get_num("time_secs"),
            // Absent in pre-guard manifests; absent is 0.
            recoveries: v.get_uint("recoveries").unwrap_or(0),
            // Absent in untraced sweeps; absent is empty.
            regions: parse_regions(v.get("regions")),
            // Absent in threads-backend sweeps; absent is empty.
            rank_dispositions: parse_strings(v.get("rank_dispositions")),
            sched: v.get_str("sched").unwrap_or("static").to_string(),
        });
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "npb-manifest-test-{}-{}-{}.jsonl",
            std::process::id(),
            name,
            n
        ))
    }

    fn cell(bench: &str, threads: usize) -> Cell {
        Cell { bench: bench.into(), class: Class::S, style: Style::Opt, threads }
    }

    fn outcome(bench: &str, status: CellStatus) -> CellOutcome {
        CellOutcome {
            cell: cell(bench, 4),
            status,
            attempts: 2,
            kills: 1,
            final_threads: 4,
            final_class: Class::S,
            mops: Some(123.5),
            time_secs: Some(0.25),
            recoveries: 0,
            regions: Vec::new(),
            rank_dispositions: Vec::new(),
            sched: "static".to_string(),
        }
    }

    #[test]
    fn region_profiles_roundtrip_through_the_journal() {
        let path = tmp("regions");
        let mut m = Manifest::create(&path).unwrap();
        let mut traced = outcome("CG", CellStatus::Verified);
        traced.regions = vec![
            RegionProfile { name: "conj_grad".into(), secs: 0.09, imbalance: 1.25 },
            RegionProfile { name: "power_step".into(), secs: 0.001, imbalance: 1.0 },
        ];
        m.cell(&traced).unwrap();
        m.cell(&outcome("EP", CellStatus::Verified)).unwrap(); // untraced
        drop(m);
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.outcomes[0].regions, traced.regions);
        assert!(state.outcomes[1].regions.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recoveries_roundtrip_through_the_journal() {
        let path = tmp("recoveries");
        let mut m = Manifest::create(&path).unwrap();
        let mut healed = outcome("CG", CellStatus::Verified);
        healed.recoveries = 2;
        m.cell(&healed).unwrap();
        drop(m);
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.outcomes[0].recoveries, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roundtrips_terminal_records() {
        let path = tmp("roundtrip");
        let mut m = Manifest::create(&path).unwrap();
        m.run_header(2, 7, false).unwrap();
        m.attempt(
            &cell("EP", 4),
            0,
            4,
            &AttemptOutcome::DeadlineKilled { after: std::time::Duration::from_millis(50) },
            50,
        )
        .unwrap();
        m.cell(&outcome("EP", CellStatus::Verified)).unwrap();
        m.cell(&outcome("CG", CellStatus::Quarantined)).unwrap();

        let state = read_manifest(&path).unwrap();
        assert_eq!(state.torn_lines, 0);
        assert_eq!(state.completed.len(), 2);
        assert!(state.completed.contains(&cell("EP", 4).key()));
        assert_eq!(state.outcomes[0], outcome("EP", CellStatus::Verified));
        assert_eq!(state.outcomes[1].status, CellStatus::Quarantined);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_skipped_not_misread() {
        let path = tmp("torn");
        let mut m = Manifest::create(&path).unwrap();
        m.cell(&outcome("EP", CellStatus::Verified)).unwrap();
        m.cell(&outcome("CG", CellStatus::Verified)).unwrap();
        drop(m);
        // Simulate a SIGKILL mid-append: truncate into the second record.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.find("\n").unwrap() + 1 + 20;
        std::fs::write(&path, &text[..cut]).unwrap();

        let state = read_manifest(&path).unwrap();
        assert_eq!(state.torn_lines, 1);
        assert_eq!(state.completed.len(), 1, "only the intact record counts");
        assert!(state.completed.contains(&cell("EP", 4).key()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_append_preserves_existing_records() {
        let path = tmp("append");
        let mut m = Manifest::create(&path).unwrap();
        m.cell(&outcome("EP", CellStatus::Verified)).unwrap();
        drop(m);
        let mut m = Manifest::append(&path).unwrap();
        m.run_header(1, 7, true).unwrap();
        m.cell(&outcome("CG", CellStatus::Verified)).unwrap();
        drop(m);
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.completed.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_resume_after_a_torn_tail_reads_every_record_it_wrote() {
        let path = tmp("torn-resume");
        let mut m = Manifest::create(&path).unwrap();
        m.cell(&outcome("EP", CellStatus::Verified)).unwrap();
        m.cell(&outcome("CG", CellStatus::Verified)).unwrap();
        drop(m);
        // The CG record's `\n` never landed.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end()).unwrap();
        let first = read_manifest(&path).unwrap();
        assert_eq!((first.completed.len(), first.torn_lines), (1, 1));

        let mut m = Manifest::append(&path).unwrap();
        m.run_header(2, 7, true).unwrap();
        m.cell(&outcome("MG", CellStatus::Verified)).unwrap();
        drop(m);
        let second = read_manifest(&path).unwrap();
        assert_eq!(second.torn_lines, 0, "the reopen cut the torn tail");
        let mut want = first.completed;
        want.insert(cell("MG", 4).key());
        assert_eq!(second.completed, want, "the record written after reopen reads back");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_unterminated_tail_is_torn_even_when_it_parses_or_is_not_utf8() {
        let path = tmp("tails");
        let mut m = Manifest::create(&path).unwrap();
        m.cell(&outcome("EP", CellStatus::Verified)).unwrap();
        m.cell(&outcome("CG", CellStatus::Verified)).unwrap();
        drop(m);
        let text = std::fs::read_to_string(&path).unwrap();
        let (ep, cg) = text.split_once('\n').unwrap();
        for tail in [cg.trim_end().as_bytes(), &[0xff, 0xfe]] {
            std::fs::write(&path, [format!("{ep}\n").as_bytes(), tail].concat()).unwrap();
            let state = read_manifest(&path).expect("a torn tail is not an error");
            assert_eq!(
                (state.completed.len(), state.torn_lines),
                (1, 1),
                "tail {:?}",
                String::from_utf8_lossy(tail)
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cell_keys_distinguish_every_axis() {
        let base = cell("EP", 4);
        let mut other = base.clone();
        other.threads = 2;
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.style = Style::Safe;
        assert_ne!(base.key(), other.key());
        let mut other = base.clone();
        other.class = Class::W;
        assert_ne!(base.key(), other.key());
    }

    #[test]
    fn enospc_injection_loses_at_most_one_record_and_resume_reads_the_rest() {
        use npb_core::iofault::{IoFaultKind, IoFaultPlan};
        let path = tmp("inject");
        let plan = IoFaultPlan { kind: IoFaultKind::Enospc, seed: 42 };
        let mut m = Manifest::create_with(&path, Some(plan)).unwrap();
        let mut landed = 0usize;
        let mut degraded = None;
        for i in 0..64usize {
            match m.cell(&outcome(&format!("EP{i}"), CellStatus::Verified)) {
                Ok(()) => landed += 1,
                Err(e) => {
                    degraded = Some(e);
                    break;
                }
            }
        }
        drop(m);
        let e = degraded.expect("enospc:42 must trip within 64 records");
        assert!(e.to_string().contains("injected"), "structured error: {e}");
        // The surviving prefix reads back whole: at most the in-flight
        // record was lost, and a resume pass (append, no injection) can
        // finish the sweep against the same file.
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.completed.len(), landed);
        let mut m = Manifest::append(&path).unwrap();
        m.cell(&outcome("CG", CellStatus::Verified)).unwrap();
        drop(m);
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.completed.len(), landed + 1, "resume converged");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn final_class_roundtrips_and_defaults_to_the_cell_class() {
        let path = tmp("final-class");
        let mut m = Manifest::create(&path).unwrap();
        let mut degraded = outcome("FT", CellStatus::Verified);
        degraded.cell.class = Class::A;
        degraded.final_class = Class::W;
        m.cell(&degraded).unwrap();
        drop(m);
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.outcomes[0].final_class, Class::W);
        // Pre-containment records (no final_class field) read back as
        // "never degraded".
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(",\"final_class\":\"W\"", "")).unwrap();
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.outcomes[0].final_class, Class::A);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_status_tags_roundtrip() {
        let path = tmp("tags");
        let mut m = Manifest::create(&path).unwrap();
        m.cell(&outcome("EP", CellStatus::Failed("verification-failed"))).unwrap();
        drop(m);
        let state = read_manifest(&path).unwrap();
        assert_eq!(state.outcomes[0].status, CellStatus::Failed("verification-failed"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_failed_tag_roundtrips_and_a_foreign_tag_reads_as_unknown() {
        let tags = ["verification-failed", "region-failed", "usage-error"];
        let tags = [tags, ["spawn-failed", "oom-killed", "cpu-limit"]].concat();
        let path = tmp("all-tags");
        let mut m = Manifest::create(&path).unwrap();
        for (i, &tag) in tags.iter().enumerate() {
            m.cell(&outcome(&format!("B{i}"), CellStatus::Failed(tag))).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let foreign = text.lines().next().unwrap().replace("verification-failed", "melted");
        std::fs::write(&path, format!("{text}{foreign}\n")).unwrap();
        let read: Vec<_> =
            read_manifest(&path).unwrap().outcomes.into_iter().map(|o| o.status).collect();
        let mut want: Vec<_> = tags.into_iter().map(CellStatus::Failed).collect();
        want.push(CellStatus::Failed("unknown"));
        assert_eq!(read, want);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sched_and_rank_dispositions_roundtrip_and_sched_defaults_to_static() {
        let path = tmp("sched");
        let mut m = Manifest::create(&path).unwrap();
        let mut procs = outcome("CG", CellStatus::Verified);
        procs.rank_dispositions = vec!["done".into(), "killed:9".into()];
        procs.sched = "feedback".into();
        m.cell(&procs).unwrap();
        assert_eq!(read_manifest(&path).unwrap().outcomes[0], procs);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace(",\"sched\":\"feedback\"", "")).unwrap();
        assert_eq!(read_manifest(&path).unwrap().outcomes[0].sched, "static");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_and_attempt_records_complete_no_cell() {
        // All a supervisor killed mid-cell leaves: resume re-runs the cell.
        let path = tmp("no-terminal");
        let mut m = Manifest::create(&path).unwrap();
        m.run_header(1, 7, false).unwrap();
        m.attempt(&cell("EP", 2), 0, 2, &AttemptOutcome::WatchdogExit, 9).unwrap();
        let state = read_manifest(&path).unwrap();
        assert!(state.completed.is_empty() && state.outcomes.is_empty() && state.torn_lines == 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn regions_json_is_inverted_by_parse_regions() {
        let regions = vec![
            RegionProfile { name: "x\"solve\\".into(), secs: 0.5, imbalance: 1.125 },
            RegionProfile { name: "rhs".into(), secs: 2e-7, imbalance: 1.0 },
        ];
        let v = Json::parse(&regions_json(&regions)).unwrap();
        assert_eq!(parse_regions(Some(&v)), regions);
        assert_eq!(regions_json(&[]), "[]");
    }

    #[test]
    fn cell_display_names_serial_and_threaded_widths() {
        assert_eq!(cell("EP", 0).to_string(), "EP S opt serial");
        assert_eq!(cell("CG", 4).to_string(), "CG S opt 4t");
    }
}
