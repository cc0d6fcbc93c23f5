//! # npb-harness
//!
//! The **process-isolated suite supervisor** for this NPB reproduction.
//!
//! The paper's methodology is whole-suite runs — Tables 2–6 sweep
//! all eight benchmarks across classes and thread counts — and the
//! in-process fault model (PR 1) deliberately turns a hung region into
//! process death, so one stuck rank used to kill an entire `npb all`
//! sweep and every result with it. This crate adds the second,
//! out-of-process fault-tolerance layer, the way external benchmark
//! runners (pSTL-Bench; Barakhshan & Eigenmann's NPB comparisons) drive
//! their suites: each (benchmark, class, style, threads) **cell** runs
//! as an isolated child `npb` process, and the supervisor owns the
//! policies a process can only get from outside itself —
//!
//! * [`supervisor`] — deadline-kill with reap, per-rung retries, the
//!   degradation ladder (N → N/2 → … → serial → quarantine);
//! * [`backoff`] — deterministic exponential backoff whose jitter comes
//!   from the NPB `randlc` generator, not the OS;
//! * [`outcome`] — the unified failure taxonomy over child exit codes,
//!   deadline kills and foreign signals;
//! * [`manifest`] — the crash-safe append-only JSONL run journal that
//!   `npb-suite --resume` continues from;
//! * [`table`] — the paper-style scalability table, with explicit
//!   `base-missing` rows instead of silently rebased speedups.
//!
//! The `npb-suite` binary (in the root crate) is a thin CLI over this
//! library; `benchmark/` drives [`run_cell`] directly.

pub mod backoff;
pub mod manifest;
pub mod outcome;
pub mod supervisor;
pub mod table;

pub use backoff::Backoff;
pub use manifest::{read_manifest, Cell, CellOutcome, CellStatus, Manifest, ResumeState};
/// The JSON reader, kept at this path for the callers that name it here.
pub use npb_core::json::Json;
/// The run description and the types of [`SuiteConfig`]'s run fields.
pub use npb_runtime::{spec, Backend, FaultPlan, RunSpec, Sched};
pub use outcome::{classify_exit, AttemptOutcome, ChildReport, Disposition};
pub use supervisor::{ladder, run_cell, run_sweep, SuiteConfig, SweepResult};
pub use table::render_scalability;
