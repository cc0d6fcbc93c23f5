//! # npb — the NAS Parallel Benchmarks in Rust
//!
//! A from-scratch Rust reproduction of the system described in Frumkin,
//! Schultz, Jin & Yan, *"Performance and Scalability of the NAS Parallel
//! Benchmarks in Java"* (IPPS 2003): the complete NPB suite (the three
//! simulated CFD applications BT, SP, LU and the kernels FT, MG, CG, IS,
//! EP), parallelized with the paper's master–worker thread model, plus
//! the paper's measurement harnesses (basic CFD operations, the Java
//! Grande `lufact` analysis).
//!
//! ## Quick start
//!
//! ```
//! use npb::{run_benchmark, Class, Style};
//!
//! let report = run_benchmark("CG", Class::S, Style::Opt, 2).unwrap();
//! assert!(report.verified.is_success());
//! println!("{}", report.banner());
//! ```
//!
//! `threads = 0` selects the pure serial path (no team, the "Serial"
//! column of the paper's tables); `threads >= 1` spawns that many
//! persistent workers.

pub mod procs;

pub use npb_core::exit::{signal_exit_code, USAGE_EXIT_CODE};
pub use npb_core::guard::parse_checkpoint_every;
pub use npb_core::trace::{self, TraceFormat, TraceSession};
pub use npb_core::{BenchReport, Class, GuardConfig, GuardStats, RegionProfile, Style, Verified};
pub use npb_runtime::{
    Backend, BarrierPoisoned, FaultKind, FaultPlan, InjectedFault, Par, Partials, RegionError,
    Sched, SharedMut, Team, WATCHDOG_EXIT_CODE,
};

pub use npb_core::{expand_flag_args, BENCHMARKS};

use std::path::Path;
use std::time::Duration;

/// Error for unknown benchmark names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBenchmark(pub String);

impl std::fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark {:?} (expected one of {:?})", self.0, BENCHMARKS)
    }
}

impl std::error::Error for UnknownBenchmark {}

/// Everything that can go wrong running a benchmark.
#[derive(Debug)]
pub enum RunError {
    /// The benchmark name is not one of [`BENCHMARKS`].
    Unknown(UnknownBenchmark),
    /// A parallel region failed (worker panic, or a poisoned dispatch);
    /// the structured error says which ranks. A watchdog timeout never
    /// reaches here — it terminates the process with
    /// [`WATCHDOG_EXIT_CODE`] (see [`Team::set_region_timeout`]).
    Region(RegionError),
    /// The requested options are inconsistent (e.g. a worker fault
    /// injected into a serial run).
    Config(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unknown(e) => e.fmt(f),
            RunError::Region(e) => write!(f, "region failure: {e}"),
            RunError::Config(m) => write!(f, "bad configuration: {m}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Fault-tolerance options for [`try_run_benchmark`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'p> {
    /// Watchdog on each parallel region's completion (`--timeout`).
    /// `None` leaves it off. When it fires, the process terminates with
    /// [`WATCHDOG_EXIT_CODE`] naming the stuck ranks.
    pub timeout: Option<Duration>,
    /// A deterministic fault to arm before the run (one-shot).
    pub inject: Option<&'p FaultPlan>,
    /// In-computation SDC guard configuration (`--sdc-guard`,
    /// `--checkpoint-every`). Default: disabled. Only the iterative
    /// benchmarks (BT, SP, LU, FT, CG, MG) have guarded outer loops; IS
    /// and EP ignore it.
    pub guard: GuardConfig,
    /// Spin budget, in microseconds, that the team's waiters burn before
    /// sleeping on their futex gates (`--spin-us`). `Some(0)` forces the pure
    /// park path — the paper's wait/notify model. `None` keeps the
    /// team's own default. Ignored when `threads == 0` (no team).
    pub spin_us: Option<u64>,
    /// Write an `npb-trace` profile of the timed section here
    /// (`--trace`). Enables span tracing for the run; the report's
    /// `regions` field is filled either way when a session is active.
    pub trace: Option<&'p Path>,
    /// Export format for `trace` (`--trace-format`, default JSON).
    pub trace_format: TraceFormat,
    /// Execution backend (`--backend`): the default in-process worker
    /// threads, or [`Backend::Procs`] — one worker *process* per rank,
    /// exchanging through shared memory under a supervising parent that
    /// survives rank death via checkpoint restart.
    pub backend: Backend,
    /// Recovery budget for the procs backend (`--max-recoveries`): how
    /// many rank-death/hang recoveries the supervisor attempts before
    /// surfacing the failure as a [`RunError::Region`]. `None` keeps
    /// the default (4). Ignored by the threads backend.
    pub max_recoveries: Option<usize>,
    /// Loop-scheduling policy for the team's schedulable regions
    /// (`--sched`).
    /// [`Sched::Static`] (the default) is the deterministic
    /// rank-partitioned model; `Guided` self-schedules shrinking chunks
    /// off a shared counter; `Feedback` re-splits each region from its
    /// measured per-rank times. All three produce bitwise-identical
    /// results. Only the threads backend schedules dynamically —
    /// combining the procs backend with a non-static policy is a
    /// [`RunError::Config`].
    pub sched: Sched,
}

/// Run one benchmark by name.
///
/// `threads == 0` runs the serial path; otherwise a fresh [`Team`] of
/// `threads` persistent workers executes the parallel regions (spawn and
/// join time is excluded from the benchmark's own timed section but
/// included in this call).
///
/// A failed parallel region propagates as a panic carrying the
/// [`RegionError`]; use [`try_run_benchmark`] for the structured,
/// non-panicking form.
pub fn run_benchmark(
    name: &str,
    class: Class,
    style: Style,
    threads: usize,
) -> Result<BenchReport, UnknownBenchmark> {
    match try_run_benchmark(name, class, style, threads, &RunOptions::default()) {
        Ok(report) => Ok(report),
        Err(RunError::Unknown(e)) => Err(e),
        Err(RunError::Region(e)) => std::panic::panic_any(e),
        Err(RunError::Config(m)) => panic!("{m}"),
    }
}

/// Run one benchmark by name with the full failure model: region
/// failures come back as structured [`RunError::Region`] values instead
/// of panics, a watchdog timeout can be set, and a deterministic
/// [`FaultPlan`] can be armed for chaos testing.
pub fn try_run_benchmark(
    name: &str,
    class: Class,
    style: Style,
    threads: usize,
    opts: &RunOptions<'_>,
) -> Result<BenchReport, RunError> {
    let name = name.to_ascii_uppercase();
    if !BENCHMARKS.contains(&name.as_str()) {
        return Err(RunError::Unknown(UnknownBenchmark(name)));
    }
    // The procs backend spawns worker *processes*, not a thread team;
    // the fault plan crosses the exec boundary as a worker flag instead
    // of being armed in-process (see `procs::run_procs`).
    let procs_mode = opts.backend == Backend::Procs;
    if procs_mode && opts.sched != Sched::Static {
        return Err(RunError::Config(format!(
            "the procs backend partitions regions statically across worker \
             processes; --sched {} requires the threads backend",
            opts.sched.label()
        )));
    }
    let team = if threads == 0 || procs_mode { None } else { Some(Team::new(threads)) };
    if let Some(t) = team.as_ref() {
        t.set_sched(opts.sched);
    }
    if let (Some(t), Some(d)) = (team.as_ref(), opts.timeout) {
        t.set_region_timeout(Some(d));
    }
    if let (Some(t), Some(us)) = (team.as_ref(), opts.spin_us) {
        t.set_spin_us(us);
    }
    if !procs_mode {
        if let Some(plan) = opts.inject {
            plan.arm(team.as_ref()).map_err(RunError::Config)?;
        }
    }
    // Tracing: an already-installed session (in-process tests install one
    // around this call) is reused; otherwise a session is created only
    // when an export path was requested, so plain runs stay zero-cost.
    let pre_installed = trace::current();
    let own_session = if opts.trace.is_some() && pre_installed.is_none() {
        Some(TraceSession::new(threads.max(1)))
    } else {
        None
    };
    let session = pre_installed.or_else(|| own_session.clone());
    if let Some(s) = &session {
        s.set_meta(&name, &class.to_string(), threads);
        if let Some(path) = opts.trace {
            s.set_output(path, opts.trace_format);
        }
        if let Some(own) = &own_session {
            trace::install(own.clone());
        }
        if let Some(t) = team.as_ref() {
            t.set_trace(Some(s.clone()));
        }
    }
    let t = team.as_ref();
    // Kernels report region failure by panicking with a `RegionError`
    // payload (`Team::exec`); catch it here so the whole failure path —
    // from a dying worker thread to the caller — is structured.
    let g = &opts.guard;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if procs_mode {
            return procs::run_procs(&name, class, style, threads, opts);
        }
        Ok(match name.as_str() {
            "BT" => npb_bt::run_with_guard(class, style, t, g),
            "SP" => npb_sp::run_with_guard(class, style, t, g),
            "LU" => npb_lu::run_with_guard(class, style, t, g),
            "FT" => npb_ft::run_with_guard(class, style, t, g),
            "IS" => npb_is::run(class, style, t),
            "CG" => npb_cg::run_with_guard(class, style, t, g),
            "MG" => npb_mg::run_with_guard(class, style, t, g),
            "EP" => npb_ep::run(class, style, t),
            _ => unreachable!("validated against BENCHMARKS above"),
        })
    }));
    // Detach the session from the team and the global slot before
    // reporting, whatever happened inside the region.
    if let Some(t) = team.as_ref() {
        t.set_trace(None);
    }
    if own_session.is_some() {
        trace::uninstall();
    }
    match result {
        Ok(Err(e)) => {
            // A procs-backend failure (recovery budget exhausted, spawn
            // error): flush the partial profile, surface the error.
            if let (Some(s), Some(_)) = (&session, opts.trace) {
                let _ = s.write_output(false);
            }
            Err(e)
        }
        Ok(Ok(mut report)) => {
            if let Some(s) = &session {
                s.set_wall_secs(report.time_secs);
                report.regions = s
                    .summarize()
                    .iter()
                    .map(|r| RegionProfile {
                        name: r.name.clone(),
                        secs: r.total_secs,
                        imbalance: r.imbalance(),
                    })
                    .collect();
                if let Some(path) = opts.trace {
                    if let Err(e) = s.write_output(false) {
                        // The benchmark verified; losing its profile is
                        // degradation, not failure. Structured event on
                        // stderr, the run's own result stands.
                        eprintln!(
                            "npb: {} ({})",
                            npb_core::IoDegraded::new("trace", "export", &e),
                            path.display()
                        );
                    }
                }
            }
            Ok(report)
        }
        Err(payload) => match payload.downcast::<RegionError>() {
            Ok(region) => {
                // Flush what the recorder saw before the failure: the
                // partial profile (poisoned ranks and all) is exactly
                // what a post-mortem needs. Best effort — the region
                // error is the headline, not a write failure here.
                if let (Some(s), Some(_)) = (&session, opts.trace) {
                    let _ = s.write_output(false);
                }
                Err(RunError::Region(*region))
            }
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_name_is_an_error() {
        assert!(run_benchmark("ZZ", Class::S, Style::Opt, 0).is_err());
    }

    #[test]
    fn dispatch_runs_the_named_benchmark() {
        let r = run_benchmark("ep", Class::S, Style::Opt, 0).unwrap();
        assert_eq!(r.name, "EP");
        assert!(r.verified.is_success());
    }
}
