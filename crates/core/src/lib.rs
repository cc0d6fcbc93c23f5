//! # npb-core
//!
//! Substrate shared by every benchmark in this reproduction of the NAS
//! Parallel Benchmarks (NPB), after Frumkin, Schultz, Jin & Yan,
//! *"Performance and Scalability of the NAS Parallel Benchmarks in Java"*
//! (IPPS 2003).
//!
//! This crate contains everything the kernels have in common:
//!
//! * [`Class`] — the NPB problem classes (S, W, A, B, C),
//! * [`child`] — the event-driven wait every supervised child process is
//!   watched with (pidfd + `poll`, the deadline as the timeout),
//! * [`random`] — the NPB linear-congruential pseudo-random number
//!   generator (`randlc` / `vranlc` / `ipow46` / [`Randlc`]): one exact
//!   integer implementation of `x <- a*x mod 2^46`, with the reference's
//!   double-precision split-multiply kept as its test oracle,
//! * [`timer`] — a closure stopwatch and per-region summary statistics,
//! * [`verify`] — verification outcome types and the NPB relative-error
//!   comparison,
//! * [`guard`] — in-computation SDC detection (per-iteration invariant
//!   monitors), iteration-level checkpoint/rollback, and the
//!   deterministic bit-flip hook,
//! * [`report`] — the standard NPB result banner,
//! * [`json`] — the workspace's one JSON codec: the escaper every record
//!   is written through and the reader that inverts it,
//! * [`log`] — the one durable log: append-only JSONL records, one
//!   fsync'd write each, replayed under one torn-tail rule (the run
//!   manifest and the `npbd` job journal are views of it),
//! * [`trace`] — the `npb-trace` observability layer: per-rank span
//!   recording (compute / barrier spin / barrier park / dispatch),
//!   named phase scopes, and JSON / folded-stack profile export,
//! * [`access`] — the dual-style (bounds-checked "Java" vs unchecked
//!   "Fortran") element access used to reproduce the paper's
//!   Java-vs-Fortran axis in a single code base,
//! * [`lane`] — lane-generic `f64` arithmetic ([`lane::Lane`]: `f64`, and
//!   four lanes to an AVX register where `avx2` is detected), so a kernel
//!   body written once runs several independent grid lines per vector
//!   with bit-identical results.

pub mod access;
pub mod child;
pub mod ckpt;
pub mod class;
pub mod cli;
pub mod exit;
pub mod guard;
pub mod iofault;
pub mod json;
pub mod lane;
pub mod log;
pub mod random;
pub mod report;
pub mod rlimit;
pub mod timer;
pub mod trace;
pub mod verify;

pub use access::{fmadd, ld, st, Style};
pub use class::Class;
pub use cli::expand_flag_args;
pub use exit::{signal_exit_code, USAGE_EXIT_CODE, WATCHDOG_EXIT_CODE};
pub use guard::{
    arm_bitflip, bitflip_armed, state_hash, ArmedBitFlip, GuardAction, GuardConfig, GuardStats,
    IterationGuard, SdcGuard,
};
pub use iofault::{FaultFile, FaultInjector, IoDegraded, IoFaultKind, IoFaultPlan};
pub use random::{ipow46, randlc, vranlc, Randlc, A_DEFAULT, SEED_DEFAULT};
pub use report::{BenchReport, RegionProfile};
pub use rlimit::ResourceLimits;
pub use timer::RegionStats;
pub use trace::{SpanKind, TraceFormat, TraceSession};
pub use verify::{arm_nan_corruption, nan_corruption_armed, rel_err_ok, verify_all, Verified};

/// All benchmark names, in the paper's table order. This lives in the
/// substrate crate (rather than the root `npb` crate that can actually
/// *run* them) so that pure-coordination layers — the suite supervisor,
/// the `npbd` service's admission control — can validate names without
/// linking every kernel.
pub const BENCHMARKS: [&str; 8] = ["BT", "SP", "LU", "FT", "IS", "CG", "MG", "EP"];
