//! Resource-limit shims for child containment, declared in-tree (the
//! build is hermetic — no libc crate), following the `extern "C"`
//! pattern established by `procs/sys.rs` and the service's signal
//! module.
//!
//! The supervisor and the npbd executor cap each child's address space
//! (`RLIMIT_AS`), CPU seconds (`RLIMIT_CPU`) and open fds
//! (`RLIMIT_NOFILE`) so one runaway cell/job cannot exhaust the host.
//! Application is *child-side*: the parent forwards `--mem-limit-mb` /
//! `--cpu-limit-s` / `--fd-limit` on the child's command line and the
//! `npb` driver calls [`apply`] on itself before touching a benchmark —
//! no `pre_exec` unsafety in the spawner, and the flags document the
//! containment in any captured command line.
//!
//! What the kernel then does becomes part of the failure taxonomy:
//!
//! * blowing `RLIMIT_AS` makes allocation fail — Rust aborts (SIGABRT),
//!   and a host OOM killer uses SIGKILL; both are classified
//!   `oom-killed` when a memory cap was armed;
//! * blowing `RLIMIT_CPU` delivers SIGXCPU (signal 24, shell code 152),
//!   classified `cpu-limit`.

use std::io;

extern "C" {
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
}

#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

/// Linux resource numbers (x86_64 and aarch64 agree on these).
pub const RLIMIT_CPU: i32 = 0;
pub const RLIMIT_NOFILE: i32 = 7;
pub const RLIMIT_AS: i32 = 9;

/// The signal the kernel delivers when `RLIMIT_CPU` soft limit expires.
pub const SIGXCPU: i32 = 24;
/// SIGKILL — what a host OOM killer (and the supervisor's deadline
/// reaper) uses.
pub const SIGKILL: i32 = 9;
/// SIGABRT — what Rust's allocation-failure handler raises when
/// `RLIMIT_AS` makes malloc return null.
pub const SIGABRT: i32 = 6;

fn set(resource: i32, limit: u64) -> io::Result<()> {
    // Keep the hard limit where it is when it is already lower than the
    // request (we may not be privileged to raise it).
    let mut cur = Rlimit { rlim_cur: 0, rlim_max: 0 };
    // SAFETY: out-pointer to a live struct; resource is a valid constant.
    if unsafe { getrlimit(resource, &mut cur) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let capped = limit.min(cur.rlim_max);
    let want = Rlimit { rlim_cur: capped, rlim_max: cur.rlim_max };
    // SAFETY: in-pointer to a live struct that outlives the call.
    if unsafe { setrlimit(resource, &want) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Cap this process's address space to `mb` mebibytes.
pub fn set_mem_limit_mb(mb: u64) -> io::Result<()> {
    set(RLIMIT_AS, mb.saturating_mul(1 << 20))
}

/// Cap this process's CPU time to `secs` seconds (SIGXCPU on expiry).
pub fn set_cpu_limit_s(secs: u64) -> io::Result<()> {
    set(RLIMIT_CPU, secs)
}

/// Cap this process's open-fd table to `n` descriptors.
pub fn set_fd_limit(n: u64) -> io::Result<()> {
    set(RLIMIT_NOFILE, n)
}

/// The containment a parent asked a child to apply to itself: carried
/// by `--mem-limit-mb` / `--cpu-limit-s` / `--fd-limit`, which the
/// runtime's `RunSpec` writes and reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    pub mem_limit_mb: Option<u64>,
    pub cpu_limit_s: Option<u64>,
    pub fd_limit: Option<u64>,
}

impl ResourceLimits {
    pub fn any(&self) -> bool {
        self.mem_limit_mb.is_some() || self.cpu_limit_s.is_some() || self.fd_limit.is_some()
    }

    /// Apply every armed cap to the *current* process. Errors name the
    /// failing cap; partial application is fine (caps are independent).
    pub fn apply(&self) -> io::Result<()> {
        if let Some(mb) = self.mem_limit_mb {
            set_mem_limit_mb(mb)
                .map_err(|e| io::Error::other(format!("--mem-limit-mb {mb}: {e}")))?;
        }
        if let Some(s) = self.cpu_limit_s {
            set_cpu_limit_s(s).map_err(|e| io::Error::other(format!("--cpu-limit-s {s}: {e}")))?;
        }
        if let Some(n) = self.fd_limit {
            set_fd_limit(n).map_err(|e| io::Error::other(format!("--fd-limit {n}: {e}")))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: no test in this *shared* test process ever lowers a limit
    // on itself — rlimits are process-wide and irreversible without
    // privilege, and would sabotage sibling tests. In-process coverage
    // stops at getrlimit round-trips; the child-side behaviour is
    // exercised end-to-end by the harness suites, which spawn real
    // `npb` children with `--mem-limit-mb` / `--cpu-limit-s`.

    #[test]
    fn getrlimit_reads_sane_values() {
        let mut r = Rlimit { rlim_cur: 0, rlim_max: 0 };
        // SAFETY: out-pointer to a live struct.
        assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut r) }, 0);
        assert!(r.rlim_cur >= 3, "a process always has stdio open: {r:?}");
        assert!(r.rlim_max >= r.rlim_cur);
    }

    #[test]
    fn any_reports_an_armed_cap() {
        let l = ResourceLimits { mem_limit_mb: Some(256), cpu_limit_s: Some(30), fd_limit: None };
        assert!(l.any());
        assert!(ResourceLimits { fd_limit: Some(64), ..ResourceLimits::default() }.any());
        assert!(!ResourceLimits::default().any());
    }

    #[test]
    fn signal_constants_match_linux() {
        assert_eq!(SIGXCPU, 24);
        assert_eq!(SIGKILL, 9);
        assert_eq!(SIGABRT, 6);
    }
}
