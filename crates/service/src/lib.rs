//! `npb-service` — the fault-contained benchmark service behind the
//! `npbd` daemon and the `npb-attack` load generator.
//!
//! This is Level 4 of the workspace's fault-tolerance stack (see
//! DESIGN.md): above the in-process runtime (Level 1), the
//! process-isolated supervisor (Level 2) and the in-computation SDC
//! guard (Level 3) sits a long-running *service* that owns a bounded
//! job queue and warm worker slots, speaks line-delimited JSON over a
//! Unix or TCP socket, and guarantees that **no accepted job is ever
//! lost and no client is ever silently queued**:
//!
//! * [`admission`] — per-class costed admission with explicit
//!   `rejected:{reason}` backpressure;
//! * [`proto`] — the wire protocol and the job's content address;
//! * [`cache`] — verified-results cache + single-flight dedupe;
//! * [`journal`] — the fsync'd crash-safe job journal and `--resume`
//!   recovery;
//! * [`exec`] — per-job fault policy mapped onto the harness
//!   supervisor (deadline-kill, jittered retries, degradation ladder);
//! * [`signal`] — hermetic SIGTERM/SIGINT handling (self-pipe trick);
//! * [`server`] — the daemon: listener, worker pool, graceful drain;
//! * [`client`] / [`attack`] — the client half: protocol helper and
//!   the chaos and slowloris loads (measuring the daemon is
//!   `benchmark/`'s job, not theirs).

pub mod admission;
pub mod attack;
pub mod cache;
pub mod client;
pub mod exec;
pub mod journal;
pub mod proto;
pub mod server;
pub mod signal;

pub use admission::{admit, class_cost, RejectReason};
pub use cache::{InFlightJob, JobResult, ResultCache};
pub use client::Client;
pub use exec::{run_job, ExecConfig};
pub use journal::{recover, JobJournal, Recovery};
pub use npb_core::iofault::fnv1a64;
pub use proto::{JobPolicy, JobSpec, Request};
pub use server::{serve, Addr, ServerConfig};
