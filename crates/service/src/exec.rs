//! Job execution: one accepted [`JobSpec`] → one supervised run.
//!
//! The service does not grow its own retry/deadline/ladder machinery —
//! it maps the job's [`JobPolicy`](crate::proto::JobPolicy) onto the
//! harness supervisor's [`SuiteConfig`] and drives the job through
//! [`run_cell`], the exact per-cell path `npb-suite` uses. Fault
//! containment is therefore identical in both worlds: a hung child is
//! deadline-killed, a crashing child is retried with deterministic
//! jittered backoff, a region-class failure walks the degradation
//! ladder (when the policy allows), and the worst case is a quarantined
//! *job* — never a wedged daemon.

use std::path::PathBuf;
use std::time::Duration;

use npb_core::ResourceLimits;
use npb_harness::manifest::Cell;
use npb_harness::{run_cell, SuiteConfig};

use crate::cache::JobResult;
use crate::proto::JobSpec;

/// Daemon-level execution defaults a job's policy can override.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// The `npb` driver binary each job's children re-invoke.
    pub npb_bin: PathBuf,
    /// Deadline applied when the job's policy does not set one.
    pub default_deadline_ms: u64,
    /// Backoff base forwarded to the supervisor (0 = no sleeping —
    /// what the tests use to stay fast).
    pub backoff_base_ms: u64,
    /// Daemon-default resource caps each child applies to itself; a
    /// job's policy can tighten or override them per field.
    pub limits: ResourceLimits,
}

/// Translate a job's spec+policy into the supervisor's configuration:
/// the run fields come typed from [`JobSpec::run`], the rest from the
/// policy and the daemon's defaults.
pub fn suite_config(cfg: &ExecConfig, spec: &JobSpec) -> Result<SuiteConfig, String> {
    let p = &spec.policy;
    let run = spec.run()?;
    Ok(SuiteConfig {
        npb_bin: cfg.npb_bin.clone(),
        deadline: Some(Duration::from_millis(p.deadline_ms.unwrap_or(cfg.default_deadline_ms))),
        retries: p.retries,
        inject: run.inject,
        child_timeout_ms: run.timeout_ms,
        sdc_guard: run.sdc_guard,
        checkpoint_every: run.checkpoint_every,
        spin_us: run.spin_us,
        backend: Some(run.backend),
        sched: Some(run.sched),
        trace: false,
        degrade: p.degrade,
        backoff_base_ms: cfg.backoff_base_ms,
        seed: spec.seed,
        limits: ResourceLimits {
            mem_limit_mb: run.limits.mem_limit_mb.or(cfg.limits.mem_limit_mb),
            cpu_limit_s: run.limits.cpu_limit_s.or(cfg.limits.cpu_limit_s),
            fd_limit: cfg.limits.fd_limit,
        },
    })
}

/// Run one job to its terminal disposition. The daemon's own journal
/// records acceptance and the terminal result, so the supervisor runs
/// manifest-less; supervisor I/O errors (spawn failures are *data*, not
/// errors) surface as a `service-error` disposition rather than
/// unwinding a worker thread.
pub fn run_job(cfg: &ExecConfig, spec: &JobSpec, seq: u64) -> JobResult {
    let cell = Cell {
        bench: spec.bench.clone(),
        class: spec.class,
        style: spec.style,
        threads: spec.threads,
    };
    let outcome = suite_config(cfg, spec)
        .and_then(|suite| run_cell(&suite, &cell, seq, None).map_err(|e| e.to_string()));
    match outcome {
        Ok(outcome) => JobResult::from_outcome(&outcome),
        Err(e) => JobResult {
            disposition: format!("service-error: {e}"),
            mops: None,
            time_secs: None,
            attempts: 0,
            kills: 0,
            recoveries: 0,
            final_threads: spec.threads,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::JobPolicy;
    use npb_core::{Class, Style};
    use npb_harness::{Backend, FaultPlan, Sched};

    #[test]
    fn policy_maps_onto_the_supervisor_config() {
        let exec = ExecConfig {
            npb_bin: PathBuf::from("/bin/true"),
            default_deadline_ms: 30_000,
            backoff_base_ms: 0,
            limits: ResourceLimits { cpu_limit_s: Some(300), ..ResourceLimits::default() },
        };
        let mut spec = JobSpec {
            bench: "EP".into(),
            class: Class::S,
            style: Style::Opt,
            threads: 4,
            seed: 42,
            policy: JobPolicy::default(),
        };
        let cfg = suite_config(&exec, &spec).unwrap();
        assert_eq!(cfg.deadline, Some(Duration::from_millis(30_000)), "daemon default");
        assert_eq!(cfg.retries, 1);
        assert!(cfg.degrade);
        assert_eq!(cfg.seed, 42, "job seed drives the jitter stream");
        assert!(!cfg.trace && !cfg.sdc_guard);
        assert_eq!(cfg.limits.cpu_limit_s, Some(300), "daemon-default cap applies");
        assert_eq!(cfg.limits.mem_limit_mb, None);
        let typed = (cfg.inject, cfg.backend, cfg.sched);
        assert_eq!(typed, (None, Some(Backend::Threads), Some(Sched::Static)), "defaults, typed");

        spec.policy = JobPolicy {
            deadline_ms: Some(250),
            retries: 3,
            degrade: false,
            sdc_guard: true,
            checkpoint_every: Some(2),
            spin_us: Some(0),
            inject: Some("hang:0".into()),
            backend: Some("procs".into()),
            sched: None,
            mem_limit_mb: Some(512),
            cpu_limit_s: Some(60),
        };
        let cfg = suite_config(&exec, &spec).unwrap();
        assert_eq!(cfg.deadline, Some(Duration::from_millis(250)), "policy overrides");
        assert_eq!(cfg.retries, 3);
        assert!(!cfg.degrade && cfg.sdc_guard);
        assert_eq!(cfg.checkpoint_every, Some(2));
        assert_eq!(cfg.spin_us, Some(0));
        assert_eq!(cfg.inject, Some(FaultPlan::parse("hang:0").unwrap()));
        assert_eq!(cfg.backend, Some(Backend::Procs));
        assert_eq!(cfg.limits.mem_limit_mb, Some(512), "per-job cap wins");
        assert_eq!(cfg.limits.cpu_limit_s, Some(60), "per-job cap overrides the daemon's");
    }

    #[test]
    fn a_spawn_failure_is_a_disposition_not_a_panic() {
        let exec = ExecConfig {
            // A directory is never a runnable binary: spawn fails fast.
            npb_bin: PathBuf::from("/"),
            default_deadline_ms: 1000,
            backoff_base_ms: 0,
            limits: ResourceLimits::default(),
        };
        let spec = JobSpec {
            bench: "EP".into(),
            class: Class::S,
            style: Style::Opt,
            threads: 0,
            seed: 0,
            policy: JobPolicy { retries: 0, ..JobPolicy::default() },
        };
        let r = run_job(&exec, &spec, 0);
        assert!(!r.verified());
        assert!(r.attempts >= 1, "the spawn failure was an attempt: {r:?}");
    }
}
