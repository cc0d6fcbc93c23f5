//! The `npbd` wire protocol: line-delimited JSON over a stream socket.
//!
//! One request per line, one or two response lines per request, UTF-8,
//! `\n`-terminated — the same framing as the run manifest, parsed with
//! the same hand-rolled [`Json`] reader (the workspace stays hermetic:
//! no serde, no tokio). A connection may pipeline any number of
//! requests; the daemon answers them in order.
//!
//! Requests (`"op"` selects):
//!
//! * `{"op":"submit", "bench":"CG", ...}` — run (or fetch) a benchmark
//!   job. Replies `rejected`, or `accepted` followed by a terminal
//!   `done`/`failed` line once the job finishes (`"wait":false` skips
//!   the terminal line: fire-and-forget, the journal and the cache keep
//!   the result).
//! * `{"op":"stats"}` — queue/cache/counter snapshot.
//! * `{"op":"ping"}` — liveness probe.
//! * `{"op":"drain"}` — begin graceful drain, as if SIGTERMed.
//!
//! Backpressure is explicit: an over-capacity submit gets a one-line
//! `{"status":"rejected","reason":"queue-full"}` reply *immediately*
//! (the 429 of this protocol) instead of unbounded queueing.

use std::fmt;

use npb_core::iofault::fnv1a64;
use npb_core::json::{json_escape, Json};
use npb_core::{Class, ResourceLimits, Style};
use npb_harness::spec::{boolean, member, uint};
use npb_harness::{Backend, FaultPlan, RunSpec, Sched};

/// Per-job fault policy: every fault-tolerance knob the CLI exposes per
/// *invocation*, carried per *request* instead. Part of the job's
/// content address — two submissions with different policies are
/// different jobs. [`JobSpec::from_json`] writes the run fields from a
/// validated [`RunSpec`], in canonical form: a default backend or sched
/// is `None`, a fault is `kind:seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPolicy {
    /// Wall-clock budget for one child attempt; `None` = the daemon's
    /// default deadline.
    pub deadline_ms: Option<u64>,
    /// Supervisor retries per ladder rung.
    pub retries: usize,
    /// Walk the degradation ladder (threads N → N/2 → … → serial) on
    /// region-class failures, or pin the requested width.
    pub degrade: bool,
    /// Arm the in-computation SDC guard in the child.
    pub sdc_guard: bool,
    /// Checkpoint cadence for the guard (`None` = child default).
    pub checkpoint_every: Option<usize>,
    /// Spin-then-park budget forwarded to the child (`None` = default).
    pub spin_us: Option<u64>,
    /// One-shot fault forwarded to the first attempt (chaos testing;
    /// retries run clean), as [`FaultPlan::spec`] spells it, so `hang`
    /// and `hang:1` are one job.
    pub inject: Option<String>,
    /// Execution backend label forwarded to the child ("procs");
    /// `None` = the threads default. With "procs" the job runs
    /// process-sharded with rank-crash containment and the degradation
    /// ladder bottoms out at one rank.
    pub backend: Option<String>,
    /// Loop-scheduling policy label forwarded to the child ("guided" or
    /// "feedback"); `None` = the static default. Guided and feedback
    /// require the threads backend — [`RunSpec::validate`] rejects the
    /// combination with "procs" at submission.
    pub sched: Option<String>,
    /// Address-space cap (`RLIMIT_AS`, MiB) each child applies to
    /// itself; `None` = the daemon's default. Exhaustion surfaces as
    /// the first-class `oom-killed` outcome and degrades the *class*.
    pub mem_limit_mb: Option<u64>,
    /// CPU-seconds cap (`RLIMIT_CPU`) per child; `None` = the daemon's
    /// default. Exhaustion (SIGXCPU) surfaces as `cpu-limit`.
    pub cpu_limit_s: Option<u64>,
}

impl Default for JobPolicy {
    fn default() -> JobPolicy {
        JobPolicy {
            deadline_ms: None,
            retries: 1,
            degrade: true,
            sdc_guard: false,
            checkpoint_every: None,
            spin_us: None,
            inject: None,
            backend: None,
            sched: None,
            mem_limit_mb: None,
            cpu_limit_s: None,
        }
    }
}

/// One benchmark job: what to run plus the policy to run it under.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub bench: String,
    pub class: Class,
    pub style: Style,
    /// Worker threads (0 = serial), as in the rest of the workspace.
    pub threads: usize,
    /// Seed for the deterministic retry jitter; part of the identity so
    /// "same job, different seed" can be forced to re-run.
    pub seed: u64,
    pub policy: JobPolicy,
}

impl JobSpec {
    /// The canonical content address: every axis of the job, in a fixed
    /// order. Two requests with equal keys are *the same job* — they
    /// dedupe in flight and share a cache slot.
    pub fn canonical_key(&self) -> String {
        let p = &self.policy;
        format!(
            "{}/{}/{}/t{}/s{}/d{}/r{}/l{}/g{}/k{}/u{}/i{}/b{}/m{}/c{}/p{}",
            self.bench,
            self.class,
            self.style.label(),
            self.threads,
            self.seed,
            p.deadline_ms.map_or(-1i64, |v| v as i64),
            p.retries,
            p.degrade as u8,
            p.sdc_guard as u8,
            p.checkpoint_every.map_or(-1i64, |v| v as i64),
            p.spin_us.map_or(-1i64, |v| v as i64),
            p.inject.as_deref().unwrap_or("-"),
            p.backend.as_deref().unwrap_or("-"),
            p.mem_limit_mb.map_or(-1i64, |v| v as i64),
            p.cpu_limit_s.map_or(-1i64, |v| v as i64),
            p.sched.as_deref().unwrap_or("-"),
        )
    }

    /// The job id shown on the wire and in the journal: the hex form of
    /// the content address.
    pub fn job_id(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical_key().as_bytes()))
    }

    /// The run this job asks for, read back from the policy's labels.
    pub fn run(&self) -> Result<RunSpec, String> {
        let p = &self.policy;
        Ok(RunSpec {
            class: self.class,
            style: self.style,
            threads: self.threads,
            backend: p.backend.as_deref().map(str::parse).transpose()?.unwrap_or_default(),
            sched: p.sched.as_deref().map(str::parse).transpose()?.unwrap_or_default(),
            spin_us: p.spin_us,
            inject: p.inject.as_deref().map(FaultPlan::parse).transpose()?,
            sdc_guard: p.sdc_guard,
            checkpoint_every: p.checkpoint_every,
            limits: ResourceLimits {
                mem_limit_mb: p.mem_limit_mb,
                cpu_limit_s: p.cpu_limit_s,
                fd_limit: None,
            },
            ..RunSpec::new(&self.bench)
        })
    }

    /// The spec's fields as a JSON-object fragment (no braces), shared
    /// by the journal's `accepted` record and test fixtures: the run
    /// fields as [`RunSpec::json_fields`] writes them, then the job's.
    ///
    /// Panics on a policy label no [`RunSpec`] writes, which only a
    /// hand-built [`JobPolicy`] can hold.
    pub fn json_fields(&self) -> String {
        let p = &self.policy;
        let run = self.run().expect("a JobPolicy holds the labels a RunSpec wrote");
        format!(
            "{},\"seed\":{},\"deadline_ms\":{},\"retries\":{},\"degrade\":{}",
            run.json_fields(),
            self.seed,
            p.deadline_ms.map_or("null".to_string(), |v| v.to_string()),
            p.retries,
            p.degrade,
        )
    }

    /// Parse a request or journal object: the run fields through
    /// [`RunSpec::from_json`] and [`RunSpec::validate`], so a run that
    /// cannot work is a `bad-request`, not a child spent on it; then
    /// the job's own. Everything except `bench` has a default; a
    /// present-but-malformed field is an error, not a guess.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let run = RunSpec::from_json(v)?;
        run.validate()?;
        let d = JobPolicy::default();
        let label = |on: bool, l: &str| on.then(|| l.to_string());
        Ok(JobSpec {
            seed: member(v, "seed", uint)?.unwrap_or(0),
            policy: JobPolicy {
                deadline_ms: member(v, "deadline_ms", uint)?,
                retries: member(v, "retries", uint)?.map_or(d.retries, |r| r as usize),
                degrade: member(v, "degrade", boolean)?.unwrap_or(d.degrade),
                sdc_guard: run.sdc_guard,
                checkpoint_every: run.checkpoint_every,
                spin_us: run.spin_us,
                inject: run.inject.map(|plan| plan.spec()),
                backend: label(run.backend != Backend::Threads, run.backend.label()),
                sched: label(run.sched != Sched::Static, run.sched.label()),
                mem_limit_mb: run.limits.mem_limit_mb,
                cpu_limit_s: run.limits.cpu_limit_s,
            },
            bench: run.bench,
            class: run.class,
            style: run.style,
            threads: run.threads,
        })
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} ", self.bench, self.class, self.style.label())?;
        if self.threads == 0 {
            write!(f, "serial")
        } else {
            write!(f, "{}t", self.threads)
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit {
        spec: Box<JobSpec>,
        /// `true` (default): hold the connection until the terminal
        /// line. `false`: fire-and-forget after `accepted`.
        wait: bool,
    },
    Stats,
    Ping,
    Drain,
}

impl Request {
    /// Parse one request line. Errors are the `detail` of a
    /// `rejected:bad-request` reply.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        match v.get_str("op") {
            Some("submit") => {
                let spec = JobSpec::from_json(&v)?;
                let wait = member(&v, "wait", boolean)?.unwrap_or(true);
                Ok(Request::Submit { spec: Box::new(spec), wait })
            }
            Some("stats") => Ok(Request::Stats),
            Some("ping") => Ok(Request::Ping),
            Some("drain") => Ok(Request::Drain),
            Some(op) => Err(format!("unknown op {op:?}")),
            None => Err("missing \"op\"".into()),
        }
    }
}

/// Render the one-line `rejected` reply (the protocol's 429).
pub fn rejected(reason: &str, detail: &str) -> String {
    if detail.is_empty() {
        format!("{{\"status\":\"rejected\",\"reason\":\"{}\"}}", json_escape(reason))
    } else {
        format!(
            "{{\"status\":\"rejected\",\"reason\":\"{}\",\"detail\":\"{}\"}}",
            json_escape(reason),
            json_escape(detail)
        )
    }
}

/// Render the `accepted` reply.
pub fn accepted(job_id: &str, dedup: bool) -> String {
    format!("{{\"status\":\"accepted\",\"job\":\"{job_id}\",\"dedup\":{dedup}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bench: &str) -> JobSpec {
        JobSpec {
            bench: bench.into(),
            class: Class::S,
            style: Style::Opt,
            threads: 2,
            seed: 7,
            policy: JobPolicy::default(),
        }
    }

    #[test]
    fn job_identity_is_content_addressed() {
        let a = spec("EP");
        let mut b = spec("EP");
        assert_eq!(a.job_id(), b.job_id(), "equal specs share an id");
        b.threads = 4;
        assert_ne!(a.job_id(), b.job_id(), "threads is part of the identity");
        let mut c = spec("EP");
        c.policy.sdc_guard = true;
        assert_ne!(a.job_id(), c.job_id(), "policy is part of the identity");
        let mut d = spec("EP");
        d.seed = 8;
        assert_ne!(a.job_id(), d.job_id(), "seed is part of the identity");
        let mut e = spec("EP");
        e.policy.sched = Some("guided".into());
        assert_ne!(a.job_id(), e.job_id(), "sched is part of the identity");
        let mut f = spec("EP");
        f.policy.spin_us = Some(0);
        assert_ne!(a.job_id(), f.job_id(), "a zero spin budget is not the default");
    }

    #[test]
    fn job_ids_are_stable_across_builds() {
        // Ids are on the wire and in the journal: a job keeps its id across daemon lives.
        assert_eq!(spec("EP").job_id(), "2bec84fb275911c2");
    }

    #[test]
    fn submit_round_trips_through_json_fields() {
        let mut s = spec("CG");
        s.policy.deadline_ms = Some(1500);
        s.policy.checkpoint_every = Some(2);
        s.policy.inject = Some("hang:1".into());
        let line = format!("{{\"op\":\"submit\",{}}}", s.json_fields());
        match Request::parse(&line).unwrap() {
            Request::Submit { spec: parsed, wait } => {
                assert_eq!(*parsed, s);
                assert!(wait, "wait defaults to true");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn submit_defaults_are_the_documented_ones() {
        let r = Request::parse(r#"{"op":"submit","bench":"ep"}"#).unwrap();
        match r {
            Request::Submit { spec, wait } => {
                assert_eq!(spec.bench, "EP", "bench is case-insensitive");
                assert_eq!(spec.class, Class::S);
                assert_eq!(spec.style, Style::Opt);
                assert_eq!(spec.threads, 0);
                assert_eq!(spec.policy, JobPolicy::default());
                assert!(wait);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_submits_are_loud() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"submit"}"#).is_err(), "bench required");
        assert!(Request::parse(r#"{"op":"submit","bench":"ZZ"}"#).is_err());
        assert!(Request::parse(r#"{"op":"submit","bench":"EP","threads":-1}"#).is_err());
        assert!(Request::parse(r#"{"op":"submit","bench":"EP","class":7}"#).is_err());
        assert!(Request::parse(r#"{"op":"frobnicate"}"#).is_err());
        assert!(Request::parse(r#"{"bench":"EP"}"#).is_err(), "op required");
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(Request::parse(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(Request::parse(r#"{"op":"drain"}"#).unwrap(), Request::Drain);
    }

    #[test]
    fn replies_are_parseable_json() {
        let r = Json::parse(&rejected("queue-full", "cost 4 over capacity 2")).unwrap();
        assert_eq!(r.get_str("status"), Some("rejected"));
        assert_eq!(r.get_str("reason"), Some("queue-full"));
        let a = Json::parse(&accepted("00ff", true)).unwrap();
        assert_eq!(a.get_str("job"), Some("00ff"));
        assert_eq!(a.get("dedup"), Some(&Json::Bool(true)));
    }

    fn submit_spec(line: &str) -> JobSpec {
        match Request::parse(line) {
            Ok(Request::Submit { spec, .. }) => *spec,
            other => panic!("{line}: {other:?}"),
        }
    }

    /// Job ids of canonical specs, as the code before [`RunSpec`] keyed
    /// them: the README's and `ci.sh`'s submits, `benchmark/`'s probe
    /// line, and one spec for every policy field. Journals and caches
    /// written then still name these jobs.
    #[test]
    fn job_ids_of_canonical_specs_are_unchanged() {
        let golden = [
            ("381c5a6d411e315b", r#""bench":"EP","class":"S","threads":2"#),
            ("2bec84fb275911c2", r#""bench":"EP","class":"S","threads":2,"seed":7"#),
            (
                "0ad69e4837193349",
                r#""bench":"EP","class":"S","threads":2,"seed":8,"inject":"hang:1","deadline_ms":2000,"retries":1"#,
            ),
            ("3d1806b8efe20ccb", r#""bench":"EP","class":"C","threads":2"#),
            ("ac7bb7ee6fa0fc9a", r#""bench":"CG","class":"S","threads":0,"seed":4503599627370495"#),
            ("421e26c96e0bc091", r#""bench":"EP","class":"S","threads":2,"inject":"hang:1""#),
            (
                "25f00287791e4f69",
                r#""bench":"CG","class":"W","style":"safe","threads":3,"seed":5,"backend":"procs","inject":"panic:3","retries":0,"degrade":false"#,
            ),
            (
                "f7e17f5d4da40b75",
                r#""bench":"LU","class":"A","threads":4,"seed":9,"sched":"feedback","spin_us":0,"sdc_guard":true,"checkpoint_every":2"#,
            ),
            (
                "808885417bde21bb",
                r#""bench":"FT","class":"B","threads":8,"seed":11,"sched":"guided","spin_us":50,"deadline_ms":1500,"mem_limit_mb":512,"cpu_limit_s":60"#,
            ),
            (
                "14d8928f67187c87",
                r#""bench":"MG","class":"S","threads":1,"seed":2,"inject":"bitflip:42","sdc_guard":true"#,
            ),
            (
                "43ead1a64f7cd2f3",
                r#""bench":"IS","class":"W","threads":256,"inject":"delay:4","backend":"procs""#,
            ),
            ("2feca96f3ed768f7", r#""bench":"BT","class":"S","threads":0,"inject":"nan:7""#),
        ];
        for (id, fields) in golden {
            let spec = submit_spec(&format!(r#"{{"op":"submit",{fields}}}"#));
            assert_eq!(spec.job_id(), id, "{fields}");
            // The journal's spelling of the job names the same job.
            let journaled = submit_spec(&format!(r#"{{"op":"submit",{}}}"#, spec.json_fields()));
            assert_eq!(journaled.job_id(), id, "{fields}, journaled");
        }
    }

    /// A seed above 2^53 − 1 is refused rather than read as its nearest
    /// `f64`: `…993` and `…992` once shared a job id, and `2^64` read as
    /// `u64::MAX`. The largest exact seed is a job of its own.
    #[test]
    fn seeds_an_f64_cannot_hold_are_bad_requests() {
        let line =
            |seed: &str| format!(r#"{{"op":"submit","bench":"EP","threads":2,"seed":{seed}}}"#);
        for seed in ["9007199254740992", "9007199254740993", "18446744073709551616"] {
            let err = Request::parse(&line(seed)).unwrap_err();
            assert!(
                err.contains("\"seed\"") && err.contains("up to 9007199254740991"),
                "{seed}: {err}"
            );
        }
        let top = submit_spec(&line("9007199254740991"));
        assert_eq!(top.seed, 9007199254740991);
        assert_ne!(top.job_id(), submit_spec(&line("9007199254740990")).job_id());
    }

    /// One run, one job: a fault spelled without its default seed, and
    /// a backend or sched spelled at its default, key as the canonical
    /// spelling does, so they dedupe and share a cache slot.
    #[test]
    fn one_run_spelled_two_ways_is_one_job() {
        let id = |extra: &str| {
            submit_spec(&format!(r#"{{"op":"submit","bench":"EP","threads":2{extra}}}"#)).job_id()
        };
        assert_eq!(id(r#","inject":"hang""#), id(r#","inject":"hang:1""#));
        assert_eq!(id(r#","inject":"hang:1""#), "421e26c96e0bc091");
        assert_ne!(id(r#","inject":"hang:2""#), id(r#","inject":"hang:1""#));
        assert_eq!(id(r#","backend":"threads","sched":"static""#), id(""));
        let procs = submit_spec(r#"{"op":"submit","bench":"EP","threads":2,"backend":"procs"}"#);
        assert_eq!(procs.policy.backend.as_deref(), Some("procs"));
    }

    /// The runs `npbd` used to admit and spend children on (or admit at
    /// any width), each refused at the wire as `bad-request` by a daemon
    /// whose `npb` would leave a mark if it ever ran.
    #[cfg(unix)]
    #[test]
    fn admission_refuses_runs_that_cannot_work_and_spawns_no_child() {
        use crate::client::Client;
        use crate::exec::ExecConfig;
        use crate::server::{serve, Addr, ServerConfig};
        use std::os::unix::fs::PermissionsExt;

        let base = std::env::temp_dir().join(format!("npbd-admit-{}", std::process::id()));
        let (npb, mark) = (base.with_extension("npb.sh"), base.with_extension("spawned"));
        let _ = std::fs::remove_file(&mark);
        std::fs::write(&npb, format!("#!/bin/sh\necho \"$*\" >> {}\n", mark.display())).unwrap();
        std::fs::set_permissions(&npb, std::fs::Permissions::from_mode(0o755)).unwrap();
        let addr = Addr::Unix(base.with_extension("sock"));
        let cfg = ServerConfig {
            addr: addr.clone(),
            journal_path: base.with_extension("journal.jsonl"),
            exec: ExecConfig {
                npb_bin: npb.clone(),
                default_deadline_ms: 5000,
                backoff_base_ms: 0,
                limits: Default::default(),
            },
            capacity: 1 << 20,
            workers: 1,
            resume: false,
            read_deadline: None,
            max_line_bytes: 4096,
            max_conns: 0,
            io_inject: None,
        };
        let daemon = std::thread::spawn(move || serve(cfg, false));
        let mut client = Client::connect_retry(&addr, 400).unwrap();

        for (fields, why) in [
            (r#""backend":"procs","threads":0"#, "threads >= 1"),
            (r#""threads":2,"inject":"bogus""#, "unknown fault kind"),
            (r#""threads":0,"inject":"panic:1""#, "needs worker threads"),
            (r#""threads":1000000"#, "wider than"),
            (r#""threads":2,"checkpoint_every":0"#, "positive integer"),
            (r#""threads":2,"backend":"procs","inject":"nan:1""#, "cannot cross the procs exec"),
            (r#""threads":2,"seed":9007199254740993"#, "up to 9007199254740991"),
            (r#""threads":2,"seed":18446744073709551616"#, "up to 9007199254740991"),
        ] {
            let line = format!(r#"{{"op":"submit","bench":"EP",{fields},"retries":0}}"#);
            let reply = client.submit(&line).unwrap();
            assert_eq!(reply.len(), 1, "{fields}: one rejection line, no terminal line");
            assert_eq!(reply[0].get_str("status"), Some("rejected"), "{fields}");
            assert_eq!(reply[0].get_str("reason"), Some("bad-request"), "{fields}");
            assert!(reply[0].get_str("detail").unwrap().contains(why), "{fields}: {:?}", reply[0]);
        }
        let stats = client.request(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(stats.get_num("executed"), Some(0.0), "{stats:?}");
        assert!(!mark.exists(), "a refused run spawned a child");

        // The control: a run that can work does reach the stub.
        let reply = client
            .submit(r#"{"op":"submit","bench":"EP","threads":2,"retries":0,"degrade":false}"#)
            .unwrap();
        assert_eq!(reply[0].get_str("status"), Some("accepted"), "{reply:?}");
        let argv = std::fs::read_to_string(&mark).unwrap();
        assert!(argv.starts_with("EP --class S --style opt --threads 2 --json"), "{argv}");

        client.request(r#"{"op":"drain"}"#).unwrap();
        daemon.join().unwrap().unwrap();
        for path in [npb, mark, base.with_extension("journal.jsonl")] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn procs_backend_refuses_dynamic_sched() {
        let line = |s: &str| {
            format!(r#"{{"op":"submit","bench":"EP","threads":2,"backend":"procs","sched":"{s}"}}"#)
        };
        assert!(Request::parse(&line("static")).is_ok());
        for sched in ["guided", "feedback"] {
            let err = Request::parse(&line(sched)).unwrap_err();
            assert!(err.contains("threads backend"), "{err}");
        }
    }

    #[test]
    fn backend_and_sched_labels_are_validated() {
        for bad in [r#""backend":"x""#, r#""backend":1"#, r#""sched":"dynamic""#, r#""sched":1"#] {
            let line = format!(r#"{{"op":"submit","bench":"EP",{bad}}}"#);
            assert!(Request::parse(&line).is_err(), "{bad}");
        }
    }

    #[test]
    fn wait_false_is_fire_and_forget_and_wait_must_be_boolean() {
        let r = Request::parse(r#"{"op":"submit","bench":"EP","wait":false}"#).unwrap();
        assert!(matches!(r, Request::Submit { wait: false, .. }));
        assert!(Request::parse(r#"{"op":"submit","bench":"EP","wait":"no"}"#).is_err());
    }

    #[test]
    fn display_names_serial_and_threaded_jobs() {
        assert_eq!(spec("CG").to_string(), "CG S opt 2t");
        let serial = JobSpec { threads: 0, ..spec("EP") };
        assert_eq!(serial.to_string(), "EP S opt serial");
    }

    #[test]
    fn json_fields_write_unset_policy_as_null() {
        let v = Json::parse(&format!("{{{}}}", spec("EP").json_fields())).unwrap();
        let keys = ["deadline_ms", "checkpoint_every", "spin_us", "inject", "backend", "sched"];
        for key in keys.into_iter().chain(["mem_limit_mb", "cpu_limit_s"]) {
            assert_eq!(v.get(key), Some(&Json::Null), "{key}");
        }
    }

    #[test]
    fn rejected_omits_an_empty_detail() {
        let r = Json::parse(&rejected("draining", "")).unwrap();
        assert_eq!(r.get_str("reason"), Some("draining"));
        assert_eq!(r.get("detail"), None);
    }

    /// Seeded fuzz: 10 000 hostile request lines — truncated JSON,
    /// random byte garbage, interleaved multi-byte unicode, duplicated
    /// and mistyped keys, oversized fields — and every single one must
    /// come back as `Ok` or a structured `Err` with a non-empty
    /// message. Never a panic, never a hang. The generator is the NPB
    /// `randlc` LCG, so a failure reproduces from the seed alone.
    #[test]
    fn fuzz_hostile_request_lines_never_panic() {
        use npb_core::randlc;
        const A: f64 = npb_core::A_DEFAULT;
        let mut x = 271_828_183.0;
        // Uniform integer in [0, n) off the deviate stream.
        let mut pick = move |n: usize| -> usize {
            debug_assert!(n > 0);
            (randlc(&mut x, A) * n as f64) as usize % n
        };

        let seeds: &[&str] = &[
            r#"{"op":"submit","bench":"EP","class":"S","threads":2,"seed":7}"#,
            r#"{"op":"submit","bench":"CG","class":"A","deadline_ms":100,"retries":3,"wait":false}"#,
            r#"{"op":"submit","bench":"FT","mem_limit_mb":512,"cpu_limit_s":60}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"ping"}"#,
            r#"{"op":"drain"}"#,
        ];
        // Hostile material to splice in: structural JSON bytes, escapes,
        // multi-byte unicode (2-, 3-, 4-byte sequences), digits, NULs.
        let splices: &[&str] = &[
            "{",
            "}",
            "[",
            "]",
            "\"",
            "\\",
            ",",
            ":",
            "\u{0}",
            "\u{7f}",
            "é",
            "→",
            "𝔘",
            "�",
            "1e308",
            "-0",
            "99999999999999999999",
            "\\u0000",
            "\"op\"",
            "null",
            "true",
        ];

        for i in 0..10_000 {
            let base = seeds[pick(seeds.len())];
            let line = match pick(6) {
                // Truncate at a char boundary (partial JSON).
                0 => {
                    let cut = pick(base.len() + 1);
                    let mut s = base.to_string();
                    while !s.is_char_boundary(cut.min(s.len())) {
                        s.pop();
                    }
                    s.truncate(cut.min(s.len()));
                    s
                }
                // Splice hostile material at a random boundary.
                1 => {
                    let mut at = pick(base.len() + 1);
                    while !base.is_char_boundary(at) {
                        at -= 1;
                    }
                    format!("{}{}{}", &base[..at], splices[pick(splices.len())], &base[at..])
                }
                // Oversized field: a multi-kilobyte bench name.
                2 => {
                    let big = "A\u{30a}".repeat(1 << (6 + pick(8)));
                    format!(r#"{{"op":"submit","bench":"{big}","class":"S"}}"#)
                }
                // Deep nesting / duplicate keys.
                3 => format!(
                    r#"{{"op":"submit","op":"submit","bench":{}"EP"{}}}"#,
                    "[".repeat(pick(64)),
                    "]".repeat(pick(64))
                ),
                // Mistyped values on every known key.
                4 => {
                    let keys = [
                        "op",
                        "bench",
                        "class",
                        "style",
                        "threads",
                        "seed",
                        "deadline_ms",
                        "retries",
                        "backoff_ms",
                        "guard",
                        "kill_after_region",
                        "unlucky",
                        "bitflip_at",
                        "mem_limit_mb",
                        "cpu_limit_s",
                        "wait",
                    ];
                    let vals = ["[]", "{}", "null", "-1", "1.5", "\"\u{202e}\"", "1e999"];
                    format!(
                        r#"{{"op":"submit","bench":"EP","{}":{}}}"#,
                        keys[pick(keys.len())],
                        vals[pick(vals.len())]
                    )
                }
                // Pure byte soup from the splice table.
                _ => (0..pick(40)).map(|_| splices[pick(splices.len())]).collect(),
            };
            match Request::parse(&line) {
                Ok(_) => {}
                Err(msg) => {
                    assert!(!msg.is_empty(), "iteration {i}: empty error for line {line:?}")
                }
            }
        }
    }
}
