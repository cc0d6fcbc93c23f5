//! The one event-driven child wait under the suite supervisor, every
//! `npbd` job and the procs backend's rank reaper, declared in-tree like
//! `rlimit.rs` and `procs/sys.rs` (the build is hermetic — no libc crate).
//!
//! The paper's workers block in `wait()` until `notify()`; [`wait_child`]
//! does the same for a child process: one `poll(2)` over {pidfd, stdout,
//! stderr} whose timeout *is* what remains of the deadline. It returns the
//! moment the child exits, kills and reaps within a millisecond of the
//! deadline, and reads the pipes as they fill, so no amount of output can
//! block the child. EOF is never waited for, on any path: a grandchild that
//! inherited the write ends may hold them long after the child is gone.

use std::ffi::c_ulong;
use std::fs::File;
use std::io::{self, ErrorKind::Interrupted, Read};
use std::os::fd::{AsRawFd, OwnedFd};
use std::process::{Child, ExitStatus};
use std::time::{Duration, Instant};

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: i32) -> i32;
}

/// `struct pollfd`; the kernel skips a negative `fd` (an empty slot).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 1;

/// Without a pidfd the exit is sampled, at the supervisor's old interval.
const SAMPLE: Duration = Duration::from_millis(10);

/// How a [`wait_child`] ended. The child is reaped either way.
#[derive(Debug)]
pub struct Waited {
    /// The child's exit status — of the SIGKILL, when `killed`.
    pub status: ExitStatus,
    /// The deadline passed first: the child was killed, then reaped.
    pub killed: bool,
    /// What the child had written to each piped stream when it was reaped.
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
}

/// A pidfd for our own un-reaped child (so `pid` cannot be a recycled
/// one), readable once it exits; `None` before Linux 5.3 and off Linux.
fn pidfd_open(pid: u32) -> Option<OwnedFd> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        use std::os::fd::FromRawFd;
        extern "C" {
            fn syscall(num: i64, ...) -> i64;
        }
        /// 434 on x86_64 and aarch64 alike (unlike `procs/sys.rs`'s `SYS_FUTEX`).
        const SYS_PIDFD_OPEN: i64 = 434;
        // SAFETY: pidfd_open(pid, flags = 0) takes two integers and touches
        // no memory of ours; it returns a fresh fd or -1.
        let fd = unsafe { syscall(SYS_PIDFD_OPEN, pid as i64, 0i64) };
        // SAFETY: a non-negative return is an open fd nobody else owns; the
        // `OwnedFd` closes it on every path out of the wait, `?` included.
        return (fd >= 0).then(|| unsafe { OwnedFd::from_raw_fd(fd as i32) });
    }
    #[allow(unreachable_code)]
    None
}

/// Block until `child` exits or `deadline` (measured from this call)
/// passes; past the deadline the child is SIGKILLed and reaped. Piped
/// stdout/stderr are taken from `child` and read as they fill.
pub fn wait_child(child: &mut Child, deadline: Option<Duration>) -> io::Result<Waited> {
    let pidfd = pidfd_open(child.id());
    wait_child_on(child, deadline, pidfd)
}

/// [`wait_child`]'s loop. With `pidfd: None` it is what runs where
/// `pidfd_open` is missing — the pidfd slot empty, the exit sampled every
/// 10 ms; public so tests in other crates can pin that on any kernel.
#[doc(hidden)]
pub fn wait_child_on(
    child: &mut Child,
    deadline: Option<Duration>,
    pidfd: Option<OwnedFd>,
) -> io::Result<Waited> {
    let started = Instant::now();
    let mut pipes = [
        child.stdout.take().map(|p| File::from(OwnedFd::from(p))),
        child.stderr.take().map(|p| File::from(OwnedFd::from(p))),
    ];
    let mut output = [Vec::new(), Vec::new()];
    let mut chunk = vec![0u8; 1 << 16];
    let mut status = None;
    let (status, killed) = loop {
        let left = deadline.map(|d| d.saturating_sub(started.elapsed()));
        let timeout = match (status, &pidfd) {
            (Some(_), _) => Some(Duration::ZERO),
            (None, Some(_)) => left,
            (None, None) => Some(left.map_or(SAMPLE, |l| l.min(SAMPLE))),
        };
        let exit = pidfd.as_ref().filter(|_| status.is_none()).map_or(-1, |p| p.as_raw_fd());
        let [out, err] = [&pipes[0], &pipes[1]].map(|p| p.as_ref().map_or(-1, |p| p.as_raw_fd()));
        let mut fds = [exit, out, err].map(|fd| PollFd { fd, events: POLLIN, revents: 0 });
        // Rounded up, so a wake-up on the timeout is never short of it.
        let timeout_ms = timeout.map_or(-1, |t| t.as_micros().div_ceil(1000).min(1 << 30) as i32);
        // SAFETY: `fds` is a live array of `fds.len()` pollfds that outlives
        // the call; the fds in it are only borrowed — `pidfd` and `pipes`
        // own them and neither is dropped while the kernel looks at them.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) } < 0 {
            match io::Error::last_os_error() {
                e if e.kind() == Interrupted => continue, // deadline recomputed
                e => return Err(e),
            }
        }
        let mut read_some = false;
        for ((pipe, out), fd) in pipes.iter_mut().zip(&mut output).zip(&fds[1..]) {
            if fd.revents == 0 {
                continue;
            }
            // POLLIN — or POLLHUP/POLLERR, which `read` turns into EOF.
            match pipe.as_mut().map(|p| p.read(&mut chunk)) {
                Some(Ok(n)) if n > 0 => {
                    out.extend_from_slice(&chunk[..n]);
                    read_some = true;
                }
                Some(Err(e)) if e.kind() == Interrupted => read_some = true,
                _ => *pipe = None, // EOF or a dead pipe: stop polling it
            }
        }
        if let Some(status) = status {
            // Reaped: take what is in the pipes now, and no more.
            if !read_some {
                break (status, false);
            }
        } else if fds[0].revents != 0 {
            status = Some(child.wait()?);
        } else if pidfd.is_none() {
            status = child.try_wait()?;
        }
        if status.is_none() && left == Some(Duration::ZERO) {
            // Kill-then-reap: SIGKILL cannot be caught, and the wait reaps
            // the zombie. The pipes are dropped unread: anything the child
            // spawned may hold the write ends, and reading on would wait for
            // *that*; dropping the read ends delivers it SIGPIPE instead.
            child.kill().ok();
            break (child.wait()?, true);
        }
    };
    let [stdout, stderr] = output;
    Ok(Waited { status, killed, stdout, stderr })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;
    use std::process::{Command, Stdio};

    type Wait = fn(&mut Child, Option<Duration>) -> io::Result<Waited>;
    const BOTH: [Wait; 2] = [wait_child, |c, d| wait_child_on(c, d, None)];

    fn sh(script: &str) -> Child {
        Command::new("sh")
            .args(["-c", script])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sh")
    }

    #[test]
    fn exit_code_and_both_streams_are_returned() {
        for wait in BOTH {
            let mut child = sh("echo out; echo err >&2; exit 7");
            let w = wait(&mut child, Some(Duration::from_secs(30))).unwrap();
            assert_eq!((w.status.code(), w.killed), (Some(7), false));
            assert_eq!((w.stdout.as_slice(), w.stderr.as_slice()), (&b"out\n"[..], &b"err\n"[..]));
        }
    }

    #[test]
    fn a_signal_death_is_reported_as_the_signal() {
        for wait in BOTH {
            let mut child = sh("kill -9 $$");
            let w = wait(&mut child, None).unwrap();
            assert_eq!((w.status.signal(), w.killed), (Some(9), false));
        }
    }

    #[test]
    fn deadline_kills_and_reaps() {
        for wait in BOTH {
            let mut child = sh("echo early; exec sleep 60");
            let t0 = Instant::now();
            let w = wait(&mut child, Some(Duration::from_millis(100))).unwrap();
            let took = t0.elapsed();
            assert!(w.killed && w.status.signal() == Some(9), "{w:?}");
            assert!(took >= Duration::from_millis(100), "killed early, at {took:?}");
            assert!(took < Duration::from_millis(500), "killed late, at {took:?}");
            assert_eq!(w.stdout, b"early\n", "output read before the kill is kept");
            // Reaped, not left a zombie: the status is already known.
            assert!(matches!(child.try_wait(), Ok(Some(_))));
        }
    }

    #[test]
    fn output_past_the_pipe_buffer_is_drained_while_waiting() {
        for wait in BOTH {
            let mut child = sh("head -c 300000 /dev/zero >&2; head -c 300000 /dev/zero; echo end");
            let w = wait(&mut child, Some(Duration::from_secs(30))).unwrap();
            assert_eq!((w.status.code(), w.killed), (Some(0), false));
            assert_eq!((w.stderr.len(), w.stdout.len()), (300_000, 300_004));
        }
    }

    #[test]
    fn an_orphan_holding_the_pipes_is_not_waited_for() {
        for wait in BOTH {
            let mut child = sh("sleep 3 & echo said; exit 1");
            let t0 = Instant::now();
            let w = wait(&mut child, None).unwrap();
            assert!(t0.elapsed() < Duration::from_secs(1), "waited for the orphan's EOF");
            assert_eq!((w.status.code(), w.stdout.as_slice()), (Some(1), &b"said\n"[..]));
        }
    }

    #[test]
    fn unpiped_streams_and_no_deadline_just_wait() {
        let mut child = Command::new("true").spawn().expect("spawn true");
        let w = wait_child(&mut child, None).unwrap();
        assert!(w.status.success() && w.stdout.is_empty() && w.stderr.is_empty());
    }
}
