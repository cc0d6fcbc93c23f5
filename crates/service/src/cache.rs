//! The content-addressed result cache and the single-flight table.
//!
//! A benchmark job is a pure function of its [`JobSpec`] — bench,
//! class, style, threads, seed and the whole fault policy are all in
//! the content address — so its verified result can be served forever
//! without re-running a child process. Two layers exploit that:
//!
//! * the **result cache** (terminal results, verified runs only:
//!   failures stay uncached so a retry actually retries);
//! * the **single-flight table** (jobs accepted but not yet terminal):
//!   identical submissions arriving while the job runs attach to the
//!   running instance as waiters instead of spawning a duplicate child.
//!
//! Both are keyed by [`JobSpec::canonical_key`] — the full string, not
//! its 64-bit hash, so a hash collision can never serve the wrong
//! result (the hash is only the *display* id).

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

use npb_core::json::{json_escape, Json};
use npb_harness::manifest::CellOutcome;

use crate::proto::JobSpec;

/// The terminal outcome of a job, as cached, journaled and put on the
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Terminal disposition tag: `verified`, `quarantined`, or a failed
    /// attempt tag (`deadline-killed`, `verification-failed`, ...).
    pub disposition: String,
    pub mops: Option<f64>,
    pub time_secs: Option<f64>,
    /// Child processes spawned for this job.
    pub attempts: u64,
    /// How many of them the supervisor killed.
    pub kills: u64,
    /// SDC rollbacks inside the verifying child.
    pub recoveries: u64,
    /// Width of the final attempt (the ladder may have descended).
    pub final_threads: usize,
}

impl JobResult {
    pub fn verified(&self) -> bool {
        self.disposition == "verified"
    }

    /// Map the supervisor's per-cell outcome to a job result.
    pub fn from_outcome(o: &CellOutcome) -> JobResult {
        JobResult {
            disposition: o.status.tag().to_string(),
            mops: o.mops,
            time_secs: o.time_secs,
            attempts: o.attempts,
            kills: o.kills,
            recoveries: o.recoveries,
            final_threads: o.final_threads,
        }
    }

    /// Fields shared by the journal's terminal record and the wire's
    /// terminal line (no braces).
    pub fn json_fields(&self) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), |x| x.to_string());
        format!(
            "\"disposition\":\"{}\",\"mops\":{},\"time_secs\":{},\"attempts\":{},\
             \"kills\":{},\"recoveries\":{},\"final_threads\":{}",
            json_escape(&self.disposition),
            opt(self.mops),
            opt(self.time_secs),
            self.attempts,
            self.kills,
            self.recoveries,
            self.final_threads
        )
    }

    /// Read a result back from a journal record or wire line.
    pub fn from_json(v: &Json) -> Option<JobResult> {
        Some(JobResult {
            disposition: v.get_str("disposition")?.to_string(),
            mops: v.get_num("mops"),
            time_secs: v.get_num("time_secs"),
            attempts: v.get_uint("attempts")?,
            kills: v.get_uint("kills").unwrap_or(0),
            recoveries: v.get_uint("recoveries").unwrap_or(0),
            final_threads: v.get_uint("final_threads").unwrap_or(0) as usize,
        })
    }

    /// The wire's terminal line for a finished job.
    pub fn done_line(&self, job_id: &str, from_cache: bool) -> String {
        format!(
            "{{\"status\":\"done\",\"job\":\"{job_id}\",{},\"from_cache\":{from_cache}}}",
            self.json_fields()
        )
    }
}

/// Verified-results-only cache, keyed by the full canonical key.
#[derive(Default)]
pub struct ResultCache {
    map: Mutex<HashMap<String, JobResult>>,
}

impl ResultCache {
    pub fn get(&self, key: &str) -> Option<JobResult> {
        self.map.lock().unwrap().get(key).cloned()
    }

    /// Insert iff the result verified (failures must stay re-runnable).
    /// Returns whether it was cached.
    pub fn insert_if_verified(&self, key: &str, result: &JobResult) -> bool {
        if !result.verified() {
            return false;
        }
        self.map.lock().unwrap().insert(key.to_string(), result.clone());
        true
    }

    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One accepted-but-not-terminal job, shared between the worker running
/// it and every connection waiting on it.
pub struct InFlightJob {
    pub id: String,
    pub key: String,
    pub spec: JobSpec,
    /// Admission cost units this job holds until terminal.
    pub cost: u64,
    /// Monotonic acceptance sequence number — the backoff-jitter stream
    /// selector, so two jobs never share a jitter stream.
    pub seq: u64,
    result: Mutex<Option<JobResult>>,
    done: Condvar,
}

impl InFlightJob {
    pub fn new(spec: JobSpec, cost: u64, seq: u64) -> InFlightJob {
        InFlightJob {
            id: spec.job_id(),
            key: spec.canonical_key(),
            spec,
            cost,
            seq,
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// Publish the terminal result and wake every waiter.
    pub fn finish(&self, result: JobResult) {
        *self.result.lock().unwrap() = Some(result);
        self.done.notify_all();
    }

    /// Block until the terminal result (single-flight waiters and
    /// `wait:true` submitters park here, off the worker pool).
    pub fn wait(&self) -> JobResult {
        let mut guard = self.result.lock().unwrap();
        loop {
            if let Some(r) = guard.as_ref() {
                return r.clone();
            }
            guard = self.done.wait(guard).unwrap();
        }
    }

    /// Non-blocking peek at the terminal result.
    pub fn peek(&self) -> Option<JobResult> {
        self.result.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_core::{Class, Style};
    use npb_harness::manifest::{Cell, CellStatus};
    use std::sync::Arc;

    fn result(disposition: &str) -> JobResult {
        JobResult {
            disposition: disposition.to_string(),
            mops: Some(12.5),
            time_secs: Some(0.25),
            attempts: 2,
            kills: 1,
            recoveries: 0,
            final_threads: 2,
        }
    }

    #[test]
    fn cache_holds_only_verified_results() {
        let cache = ResultCache::default();
        assert!(!cache.insert_if_verified("k1", &result("deadline-killed")));
        assert!(cache.get("k1").is_none(), "failures are not cached");
        assert!(cache.insert_if_verified("k1", &result("verified")));
        assert_eq!(cache.get("k1").unwrap().mops, Some(12.5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn result_round_trips_through_json() {
        let r = result("verified");
        let line = r.done_line("00aa", true);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get_str("status"), Some("done"));
        assert_eq!(v.get_str("job"), Some("00aa"));
        assert_eq!(v.get("from_cache"), Some(&Json::Bool(true)));
        assert_eq!(JobResult::from_json(&v).unwrap(), r);
        // Quarantined jobs have no mops/time: null fields survive.
        let mut q = result("quarantined");
        q.mops = None;
        q.time_secs = None;
        let v = Json::parse(&q.done_line("00aa", false)).unwrap();
        assert_eq!(JobResult::from_json(&v).unwrap(), q);
    }

    #[test]
    fn from_outcome_maps_the_taxonomy() {
        let o = CellOutcome {
            cell: Cell { bench: "EP".into(), class: Class::S, style: Style::Opt, threads: 2 },
            status: CellStatus::Verified,
            attempts: 3,
            kills: 2,
            final_threads: 1,
            final_class: Class::S,
            mops: Some(5.0),
            time_secs: Some(1.0),
            recoveries: 1,
            regions: Vec::new(),
            rank_dispositions: Vec::new(),
            sched: "static".to_string(),
        };
        let r = JobResult::from_outcome(&o);
        assert!(r.verified());
        assert_eq!(r.attempts, 3);
        assert_eq!(r.final_threads, 1, "ladder descent is visible to the client");
    }

    #[test]
    fn in_flight_waiters_all_get_the_result() {
        let spec = JobSpec {
            bench: "EP".into(),
            class: Class::S,
            style: Style::Opt,
            threads: 0,
            seed: 0,
            policy: crate::proto::JobPolicy::default(),
        };
        let job = Arc::new(InFlightJob::new(spec, 1, 0));
        assert!(job.peek().is_none());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let j = Arc::clone(&job);
                std::thread::spawn(move || j.wait().disposition)
            })
            .collect();
        job.finish(result("verified"));
        for w in waiters {
            assert_eq!(w.join().unwrap(), "verified");
        }
    }
}
