//! # npb-runtime
//!
//! The parallel substrate of this NPB reproduction, mirroring §4 of the
//! paper: the Java version derives every benchmark class from
//! `java.lang.Thread`, designates the main instance as a **master** that
//! controls synchronization, and keeps the **workers** switched between
//! blocked and runnable states with `wait()`/`notify()`. Conceptually the
//! model is OpenMP's: a parallel region runs the same code on every
//! worker, loop iterations are statically partitioned, and barriers
//! separate dependent phases.
//!
//! This crate reproduces exactly that state machine:
//!
//! * [`Team`] — a persistent set of worker threads blocked on a futex
//!   gate between parallel regions; [`Team::exec`] is the paper's
//!   master dispatch (`notify_all`) followed by the master blocking until
//!   all workers report done;
//! * [`Par`] — the per-thread context inside a region: thread id, static
//!   [`Par::range`] partitioning, [`Par::barrier`];
//! * [`Exchange`] — the rank-level interface kernel bodies are written
//!   against, which [`Par`] and the procs backend's rank view both
//!   implement, so one body serves threads and processes;
//! * [`partition`] — OpenMP-style static block partitioning;
//! * [`Partials`] — cache-padded per-thread slots combined in rank order,
//!   so reductions are deterministic for a fixed thread count;
//! * [`SharedMut`] — the disjoint-writes shared view that plays the role
//!   of OpenMP's shared arrays.
//!
//! The **serial** rows of the paper's tables correspond to running with no
//! team at all ([`run_par`] with `None`), and "1 thread" to
//! `Team::new(1)` — which is how the paper measures the thread overhead
//! ("Java thread overhead (1 thread versus serial) contributes no more
//! than 20% to the execution time").

//!
//! PRs past the seed grew this into a fault-tolerant substrate: region
//! bodies that panic poison the barrier (so siblings unwind instead of
//! deadlocking), [`Team::try_exec`] reports structured [`RegionError`]s,
//! a watchdog timeout names the ranks that never arrived (and terminates
//! the process, since a stuck rank can be neither killed nor safely
//! abandoned), and a seeded [`FaultPlan`] injects deterministic
//! panics/delays/hangs/NaNs for chaos testing.
//!
//! The synchronization hot paths are hybrid **spin-then-park**: region
//! dispatch is lock-free epoch publication, barriers are sense-reversing
//! with bounded adaptive spinning, and the sleep of the paper's
//! `wait()`/`notify()` model — one futex gate per waiting place —
//! survives as the fallback (and as the explicit `spin_us = 0`
//! configuration). Per-run scratch that kernels reuse across regions
//! lives in [`RankScratch`].
//!
//! The threads runtime is four modules along its seams:
//!
//! * `team` — the shared team state, its lifecycle (a team keeps one
//!   width and one identity from [`Team::new`] to drop), region dispatch
//!   ([`Team::try_exec`]), in-place healing and the worker loop;
//! * `par` — [`Par`], the scheduled-loop glue over `sched`, and the
//!   barrier;
//! * `wait` — spin-then-park: the bounded adaptive spin, its default
//!   budget, and the futex `Gate` every waiter sleeps on;
//! * `error` — [`RegionError`], the runtime's own panic payloads, and
//!   [`guarded_loop`], the SDC-guarded outer loop of every iterative
//!   benchmark.

//!
//! The multi-*process* generalization of all of the above — rank
//! sharding across supervised worker processes with shared-memory
//! exchanges, cross-process futex barriers, and per-rank checkpoint
//! slots — lives in [`procs`].

mod error;
mod exchange;
mod inject;
mod par;
mod partials;
mod partition;
pub mod procs;
mod sched;
mod scratch;
mod shared;
mod team;
mod wait;

pub use error::{escalate_corruption, guarded_loop, BarrierPoisoned, InjectedFault, RegionError};
pub use exchange::Exchange;
pub use inject::{FaultKind, FaultPlan};
pub use par::Par;
pub use partials::Partials;
pub use partition::partition;
pub use procs::Backend;
pub use sched::{OrderedSplit, Sched};
pub use scratch::RankScratch;
pub use shared::SharedMut;
pub use team::{run_par, Team, WATCHDOG_EXIT_CODE};
pub use wait::DEFAULT_SPIN_US;
