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
//! of dying. The benchmark-specific drivers (who owns which rows, what
//! the exchange areas mean) live in the root `npb` crate, which links
//! the kernels; this module is pure mechanism.

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

/// Parse the `NPB_BACKEND` environment value. A malformed value is an
/// explicit error so the caller can warn once on stderr naming the bad
/// value — the same contract as `NPB_REGION_TIMEOUT_MS` and
/// `NPB_SPIN_US`: a typo must not silently change how a long batch run
/// executes.
pub fn parse_backend(raw: &str) -> Result<Backend, String> {
    raw.parse::<Backend>().map_err(|_| {
        format!(
            "npb runtime: ignoring NPB_BACKEND={raw:?}: expected \"threads\" or \"procs\"; \
             the in-process threads backend stays selected"
        )
    })
}

/// The backend selected by the `NPB_BACKEND` environment variable, or
/// the default ([`Backend::Threads`]) when unset. A malformed value
/// warns once on stderr (naming the bad value) and keeps the default.
pub fn backend_from_env() -> Backend {
    match std::env::var("NPB_BACKEND") {
        Ok(raw) => parse_backend(&raw).unwrap_or_else(|warning| {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("{warning}"));
            Backend::Threads
        }),
        Err(_) => Backend::Threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_env_parsing_matches_the_warn_once_contract() {
        // Same parity as NPB_REGION_TIMEOUT_MS / NPB_SPIN_US: the two
        // valid spellings parse (whitespace tolerated), and a malformed
        // NPB_BACKEND is a loud error naming the bad value and stating
        // the fallback — never a silent change of execution backend.
        assert_eq!(parse_backend("threads"), Ok(Backend::Threads));
        assert_eq!(parse_backend("procs"), Ok(Backend::Procs));
        assert_eq!(parse_backend(" procs "), Ok(Backend::Procs), "whitespace is tolerated");
        for bad in ["Procs", "proc", "mpi", "", "threads,procs", "1"] {
            let err = parse_backend(bad).expect_err(&format!("{bad:?} must not parse"));
            assert!(err.contains("NPB_BACKEND"), "warning must name the variable: {err}");
            assert!(err.contains(&format!("{bad:?}")), "warning must name the value: {err}");
            assert!(err.contains("threads backend"), "warning must state the fallback: {err}");
        }
    }
}
