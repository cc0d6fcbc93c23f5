//! The `procs` execution backend substrate: multi-process rank
//! execution with crash containment.
//!
//! Where the in-process runtime shards a benchmark's domain across a
//! [`Team`](crate::Team) of threads, this module family provides the
//! mechanism to shard it across worker *processes* — fork/exec of the
//! driver binary in a `--rank R/N` worker mode — exchanging reductions
//! and merges through a shared-memory segment:
//!
//! * [`sys`] — the in-tree `extern "C"` shims (`memfd_create`, `mmap`,
//!   the futex syscall); the build stays hermetic, no libc crate.
//! * [`shm`] — the [`ShmSegment`] every rank maps, its deterministic
//!   [`ShmLayout`], and the per-rank integrity-hashed [`CkptSlot`]s
//!   (one writer each — recovery I/O never contends).
//! * [`barrier`] — the sense-reversing barrier generalized to a
//!   cross-process futex [`ProcBarrier`] whose timeouts are the
//!   parent's rank-death detection points.
//! * [`supervise`] — the parent's [`RankSet`]: `try_wait` liveness
//!   polling, SIGKILL escalation, bounded reaps.
//!
//! The payoff over threads is *containment*: a rank's segfault, OOM
//! kill, or injected crash takes down one process. The supervising
//! parent detects the death (futex-barrier timeout + `waitpid`), kills
//! the stragglers, rolls every rank back to the last checkpointed
//! round, and respawns — the benchmark completes and verifies instead
//! of dying. The rank bodies are the kernel crates' own, generic over
//! [`Exchange`](crate::Exchange); the glue that runs them on processes
//! (segment layouts, the rank view, the round loop) lives in the root
//! `npb` crate. This module is pure mechanism.

pub mod barrier;
pub mod shm;
pub mod supervise;
pub mod sys;

pub use barrier::ProcBarrier;
pub use shm::{ckpt_slot_bytes, header, CkptSlot, ShmLayout, ShmSegment};
pub use supervise::{describe_exit, RankProc, RankSet};

/// Which execution backend runs a benchmark's parallel width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The in-process worker-thread team (the paper's model).
    #[default]
    Threads,
    /// One process per rank, exchanging through shared memory, with
    /// rank-crash containment and supervised checkpoint restart.
    Procs,
}

impl Backend {
    /// Stable lower-case label (CLI value, JSON field, policy key).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Procs => "procs",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s.trim() {
            "threads" => Ok(Backend::Threads),
            "procs" => Ok(Backend::Procs),
            other => Err(format!("unknown backend {other:?} (expected threads|procs)")),
        }
    }
}
