//! The crash-safe job journal: npbd's source of truth.
//!
//! Every job transition is appended as one JSONL record and fsync'd
//! before the daemon acts on it (accept before replying `accepted`,
//! terminal before replying `done`). The contract this buys: **no
//! accepted job is ever lost**. SIGKILL the daemon at any instant,
//! restart with `--resume`, and every journaled job still reaches a
//! terminal disposition — either its `done` record is already on disk,
//! or recovery re-enqueues it.
//!
//! Records (`"ev"` selects):
//!
//! * `daemon`   — daemon start: pid, capacity, workers (provenance).
//! * `accepted` — job admitted; carries the *full spec* so recovery can
//!   re-run it without any other state.
//! * `started`  — a worker began executing the job (diagnostic; a
//!   started-but-not-done job is re-run from scratch on resume, which
//!   is safe because jobs are pure).
//! * `done`     — terminal disposition + metrics; `verified` records
//!   also re-seed the result cache on resume.
//! * `drain`    — graceful drain began.
//! * `shutdown` — clean exit; jobs after this line belong to a later
//!   daemon incarnation in the same journal file.
//!
//! The durable record format and the torn-tail rule are
//! [`npb_core::log`]'s; this module formats and interprets the records.

use std::path::Path;

use npb_core::iofault::IoFaultPlan;
use npb_core::log::{self, AppendLog};

use crate::cache::JobResult;
use crate::proto::JobSpec;

/// The journal writer, over an [`AppendLog`]: a record the daemon acted
/// on is a record that survives power loss.
///
/// Under `--io-inject` the log proves the failure contract: a
/// write/sync error here may have torn at most the in-flight record,
/// and the daemon's answer is the structured seal-and-drain path, never
/// a panic (the journal is the daemon's source of truth; a journal that
/// cannot promise durability must stop accepting work it could not
/// replay).
pub struct JobJournal {
    log: AppendLog,
}

impl JobJournal {
    /// Open (creating or appending) the journal at `path`.
    pub fn open(path: &Path) -> std::io::Result<JobJournal> {
        JobJournal::open_with(path, None)
    }

    /// Open with an optional deterministic fault-injection plan
    /// (`--io-inject` on the daemon command line).
    pub fn open_with(path: &Path, inject: Option<IoFaultPlan>) -> std::io::Result<JobJournal> {
        Ok(JobJournal { log: AppendLog::open(path, "journal", inject)? })
    }

    pub fn daemon(&mut self, pid: u32, capacity: u64, workers: usize) -> std::io::Result<()> {
        self.log.record(&format!(
            "{{\"ev\":\"daemon\",\"pid\":{pid},\"capacity\":{capacity},\"workers\":{workers}}}"
        ))
    }

    pub fn accepted(&mut self, spec: &JobSpec, seq: u64) -> std::io::Result<()> {
        self.log.record(&format!(
            "{{\"ev\":\"accepted\",\"job\":\"{}\",\"seq\":{seq},{}}}",
            spec.job_id(),
            spec.json_fields()
        ))
    }

    pub fn started(&mut self, job_id: &str) -> std::io::Result<()> {
        self.log.record(&format!("{{\"ev\":\"started\",\"job\":\"{job_id}\"}}"))
    }

    pub fn done(&mut self, job_id: &str, result: &JobResult) -> std::io::Result<()> {
        self.log
            .record(&format!("{{\"ev\":\"done\",\"job\":\"{job_id}\",{}}}", result.json_fields()))
    }

    pub fn drain(&mut self) -> std::io::Result<()> {
        self.log.record("{\"ev\":\"drain\"}")
    }

    pub fn shutdown(&mut self, jobs_done: u64) -> std::io::Result<()> {
        self.log.record(&format!("{{\"ev\":\"shutdown\",\"jobs_done\":{jobs_done}}}"))
    }
}

/// What `--resume` recovers from a journal.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Accepted jobs with no terminal record, in acceptance order —
    /// the work a crashed daemon still owes its clients.
    pub pending: Vec<JobSpec>,
    /// Verified terminal results, as `(canonical_key, result)` — the
    /// cache seeds.
    pub seeds: Vec<(String, JobResult)>,
    /// Terminal records seen (across all incarnations in the file).
    pub completed: u64,
    /// Unparseable lines skipped (torn tail from a crash mid-write).
    pub torn_lines: usize,
    /// Whether the last incarnation exited via a `shutdown` record
    /// (clean) — purely informational.
    pub clean_shutdown: bool,
}

/// Read a journal back. Torn/unparseable lines are tolerated (counted,
/// skipped); a missing file is an empty recovery, so `--resume` against
/// a fresh path just starts fresh.
pub fn recover(path: &Path) -> std::io::Result<Recovery> {
    let replay = match log::replay(path) {
        Ok(r) => r,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::default()),
        Err(e) => return Err(e),
    };

    let mut rec = Recovery { torn_lines: replay.torn, ..Recovery::default() };
    // Acceptance order, keyed by job id; a `done` flips the slot to
    // terminal. Jobs are identified by content address, so a re-accept
    // of an already-terminal job (later incarnation, cache disabled)
    // makes it pending again — last event wins.
    let mut order: Vec<String> = Vec::new();
    let mut specs: std::collections::HashMap<String, JobSpec> = std::collections::HashMap::new();
    let mut open: std::collections::HashSet<String> = std::collections::HashSet::new();
    // Jobs are indexed by the id of their spec as it parses today. A
    // record journaled before fault specs and default labels were keyed
    // canonically (`"inject":"hang"`) names its job by an older id, which
    // this maps to the canonical one so a `done` of either spelling
    // closes the job.
    let mut canonical: std::collections::HashMap<String, String> = std::collections::HashMap::new();

    for v in replay.records {
        match v.get_str("ev") {
            Some("accepted") => {
                let (Some(journaled), Ok(spec)) = (v.get_str("job"), JobSpec::from_json(&v)) else {
                    rec.torn_lines += 1;
                    continue;
                };
                let id = spec.job_id();
                canonical.insert(journaled.to_string(), id.clone());
                if !specs.contains_key(&id) {
                    order.push(id.clone());
                }
                specs.insert(id.clone(), spec);
                open.insert(id);
                rec.clean_shutdown = false;
            }
            Some("done") => {
                let (Some(id), Some(result)) = (v.get_str("job"), JobResult::from_json(&v)) else {
                    rec.torn_lines += 1;
                    continue;
                };
                let id = canonical.get(id).map_or(id, String::as_str);
                open.remove(id);
                rec.completed += 1;
                if result.verified() {
                    if let Some(spec) = specs.get(id) {
                        rec.seeds.push((spec.canonical_key(), result));
                    }
                }
            }
            Some("shutdown") => rec.clean_shutdown = true,
            Some("daemon") | Some("started") | Some("drain") => {}
            _ => rec.torn_lines += 1,
        }
    }

    for id in &order {
        if open.contains(id) {
            rec.pending.push(specs[id].clone());
        }
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobPolicy;
    use npb_core::{Class, Style};
    use std::fs;
    use std::path::PathBuf;

    fn spec(bench: &str, threads: usize) -> JobSpec {
        JobSpec {
            bench: bench.into(),
            class: Class::S,
            style: Style::Opt,
            threads,
            seed: 1,
            policy: JobPolicy::default(),
        }
    }

    fn result(disposition: &str) -> JobResult {
        JobResult {
            disposition: disposition.to_string(),
            mops: Some(3.5),
            time_secs: Some(0.1),
            attempts: 1,
            kills: 0,
            recoveries: 0,
            final_threads: 2,
        }
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("npbd-journal-{}-{name}.jsonl", std::process::id()))
    }

    #[test]
    fn missing_journal_is_an_empty_recovery() {
        let rec = recover(Path::new("/nonexistent/npbd.jsonl")).unwrap();
        assert!(rec.pending.is_empty() && rec.seeds.is_empty());
        assert_eq!(rec.torn_lines, 0);
    }

    #[test]
    fn recovery_reenqueues_exactly_the_incomplete_jobs() {
        let path = temp("pending");
        let _ = fs::remove_file(&path);
        let (a, b, c) = (spec("EP", 2), spec("CG", 2), spec("MG", 4));
        {
            let mut j = JobJournal::open(&path).unwrap();
            j.daemon(1234, 8, 2).unwrap();
            j.accepted(&a, 0).unwrap();
            j.accepted(&b, 1).unwrap();
            j.started(&a.job_id()).unwrap();
            j.done(&a.job_id(), &result("verified")).unwrap();
            j.accepted(&c, 2).unwrap();
            j.started(&b.job_id()).unwrap();
            // ...daemon SIGKILLed here: b started-not-done, c accepted.
        }
        let rec = recover(&path).unwrap();
        assert_eq!(
            rec.pending.iter().map(|s| s.bench.as_str()).collect::<Vec<_>>(),
            vec!["CG", "MG"],
            "incomplete jobs come back in acceptance order"
        );
        assert_eq!(rec.completed, 1);
        assert_eq!(rec.seeds.len(), 1, "the verified job seeds the cache");
        assert_eq!(rec.seeds[0].0, a.canonical_key());
        assert!(!rec.clean_shutdown);
        assert_eq!(rec.torn_lines, 0);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_job_journaled_under_a_non_canonical_spelling_closes_under_either_id() {
        // `"inject":"hang"` keyed as its own job (this id) until fault
        // specs were keyed as `kind:seed`; the job is `hang:1`'s now.
        let old = r#"{"ev":"accepted","job":"ecd81772ea0cb3dc","seq":0,"bench":"EP","threads":2,"inject":"hang"}"#;
        let canonical = "421e26c96e0bc091";
        for done_as in ["ecd81772ea0cb3dc", canonical] {
            let path = temp(&format!("alias-{done_as}"));
            fs::write(&path, format!("{old}\n")).unwrap();
            let rec = recover(&path).unwrap();
            assert_eq!(rec.pending.len(), 1, "owed before its done");
            assert_eq!(rec.pending[0].job_id(), canonical);
            assert_eq!(rec.pending[0].policy.inject.as_deref(), Some("hang:1"));
            JobJournal::open(&path).unwrap().done(done_as, &result("verified")).unwrap();
            let rec = recover(&path).unwrap();
            assert!(rec.pending.is_empty(), "a done under {done_as} closes the job");
            assert_eq!(rec.seeds.len(), 1);
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn failed_results_do_not_seed_the_cache() {
        let path = temp("failed");
        let _ = fs::remove_file(&path);
        let a = spec("EP", 2);
        {
            let mut j = JobJournal::open(&path).unwrap();
            j.accepted(&a, 0).unwrap();
            j.done(&a.job_id(), &result("quarantined")).unwrap();
            j.shutdown(1).unwrap();
        }
        let rec = recover(&path).unwrap();
        assert!(rec.pending.is_empty(), "terminal is terminal, even when failed");
        assert!(rec.seeds.is_empty(), "only verified results are cache seeds");
        assert!(rec.clean_shutdown);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_skipped_not_trusted() {
        let path = temp("torn");
        let _ = fs::remove_file(&path);
        let (a, b) = (spec("EP", 2), spec("CG", 2));
        {
            let mut j = JobJournal::open(&path).unwrap();
            j.accepted(&a, 0).unwrap();
            j.accepted(&b, 1).unwrap();
        }
        // Simulate power loss mid-record: append a torn `done` for b.
        let full = format!(
            "{{\"ev\":\"done\",\"job\":\"{}\",{}}}",
            b.job_id(),
            result("verified").json_fields()
        );
        for cut in [full.len() / 3, full.len() - 2] {
            let mut text = fs::read_to_string(&path).unwrap();
            text.push_str(&full[..cut]);
            fs::write(&path, &text).unwrap();
            let rec = recover(&path).unwrap();
            assert_eq!(rec.torn_lines, 1, "torn record at cut {cut} is counted");
            assert_eq!(
                rec.pending.len(),
                2,
                "a torn done must NOT mark the job terminal (cut {cut})"
            );
            // Restore the untorn journal for the next cut.
            let clean: String = fs::read_to_string(&path)
                .unwrap()
                .lines()
                .take(2)
                .map(|l| format!("{l}\n"))
                .collect();
            fs::write(&path, clean).unwrap();
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_reopen_after_a_torn_tail_keeps_the_recovery_and_reads_the_next_record() {
        let path = temp("torn-reopen");
        let _ = fs::remove_file(&path);
        let (a, b) = (spec("EP", 2), spec("CG", 2));
        {
            let mut j = JobJournal::open(&path).unwrap();
            j.accepted(&a, 0).unwrap();
            j.done(&a.job_id(), &result("verified")).unwrap();
        }
        // The `done` record's `\n` never landed.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.trim_end()).unwrap();
        let first = recover(&path).unwrap();
        {
            let mut j = JobJournal::open(&path).unwrap();
            j.daemon(5678, 8, 2).unwrap();
            j.accepted(&b, 1).unwrap();
        }
        let second = recover(&path).unwrap();
        let ids = |r: &Recovery| r.pending.iter().map(|s| s.job_id()).collect::<Vec<_>>();
        assert_eq!(ids(&first), vec![a.job_id()], "an unterminated done is torn");
        assert_eq!(ids(&second), vec![a.job_id(), b.job_id()], "the new accept reads back");
        assert_eq!(first.seeds.len(), second.seeds.len(), "both recoveries agree on seeds");
        assert_eq!((first.torn_lines, second.torn_lines), (1, 0), "the reopen cut the tail");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn an_unterminated_tail_is_torn_even_when_it_parses_or_is_not_utf8() {
        let path = temp("tails");
        let (a, b) = (spec("EP", 2), spec("CG", 2));
        let done = format!(
            "{{\"ev\":\"done\",\"job\":\"{}\",{}}}",
            b.job_id(),
            result("verified").json_fields()
        );
        for tail in [done.as_bytes(), &[0xff, 0xfe]] {
            let _ = fs::remove_file(&path);
            {
                let mut j = JobJournal::open(&path).unwrap();
                j.accepted(&a, 0).unwrap();
                j.accepted(&b, 1).unwrap();
            }
            let mut bytes = fs::read(&path).unwrap();
            bytes.extend_from_slice(tail);
            fs::write(&path, &bytes).unwrap();
            let rec = recover(&path).expect("a torn tail is not an error");
            assert_eq!(
                (rec.pending.len(), rec.torn_lines),
                (2, 1),
                "tail {:?}",
                String::from_utf8_lossy(tail)
            );
            assert!(rec.seeds.is_empty(), "tail {:?}", String::from_utf8_lossy(tail));
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn enospc_injection_loses_at_most_the_inflight_record_and_recovery_converges() {
        use npb_core::iofault::{IoFaultKind, IoFaultPlan};
        let path = temp("inject");
        let _ = fs::remove_file(&path);
        let plan = IoFaultPlan { kind: IoFaultKind::Enospc, seed: 42 };
        let specs: Vec<JobSpec> = (1..=32).map(|t| spec("EP", t)).collect();
        let mut accepted = 0usize;
        {
            let mut j = JobJournal::open_with(&path, Some(plan)).unwrap();
            for (i, s) in specs.iter().enumerate() {
                match j.accepted(s, i as u64) {
                    Ok(()) => accepted += 1,
                    Err(e) => {
                        assert!(e.to_string().contains("injected"), "structured: {e}");
                        break;
                    }
                }
            }
        }
        assert!(accepted < specs.len(), "enospc:42 must trip within 32 accepts");
        // Convergence: recovery sees exactly the journaled accepts (the
        // in-flight record is the only loss), and an *unarmed* journal
        // (the restarted daemon on a healthy disk) drives them all to
        // terminal.
        let rec = recover(&path).unwrap();
        assert_eq!(rec.pending.len(), accepted, "every durable accept is recovered");
        {
            let mut j = JobJournal::open(&path).unwrap();
            for p in &rec.pending {
                j.done(&p.job_id(), &result("verified")).unwrap();
            }
            j.shutdown(rec.pending.len() as u64).unwrap();
        }
        let rec = recover(&path).unwrap();
        assert!(rec.pending.is_empty(), "resume converged: no job left open");
        assert!(rec.clean_shutdown);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn resume_cycle_reaccept_then_done_converges() {
        // The chaos-test invariant end-to-end: accept → crash → resume
        // re-accepts → done. The job must end terminal, once.
        let path = temp("cycle");
        let _ = fs::remove_file(&path);
        let a = spec("FT", 2);
        {
            let mut j = JobJournal::open(&path).unwrap();
            j.accepted(&a, 0).unwrap();
            // crash
        }
        {
            let rec = recover(&path).unwrap();
            assert_eq!(rec.pending.len(), 1);
            let mut j = JobJournal::open(&path).unwrap();
            j.daemon(5678, 8, 2).unwrap();
            j.accepted(&rec.pending[0], 0).unwrap();
            j.done(&rec.pending[0].job_id(), &result("verified")).unwrap();
            j.shutdown(1).unwrap();
        }
        let rec = recover(&path).unwrap();
        assert!(rec.pending.is_empty(), "the job reached a terminal disposition");
        assert_eq!(rec.seeds.len(), 1);
        assert!(rec.clean_shutdown);
        let _ = fs::remove_file(&path);
    }
}
