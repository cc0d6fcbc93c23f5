//! Hermetic POSIX signal handling: the self-pipe trick, hand-rolled.
//!
//! The workspace has no `libc` crate, so the handful of syscalls a
//! graceful-drain daemon needs are declared directly against the
//! platform C library. A signal handler may only do async-signal-safe
//! work, so the handler here does exactly one thing — `write()` the
//! signal number into a pipe — and a plain watcher *thread* does the
//! real flushing/draining on the read end, with the full std library
//! at its disposal.
//!
//! Used by `npbd` (SIGTERM → graceful drain) and by `npb` itself
//! (SIGTERM/SIGINT → flush the partial trace profile and an
//! `interrupted` report before dying with the 128+N convention).

use std::io;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::thread;

pub const SIGINT: i32 = 2;
pub const SIGKILL: i32 = 9;
pub const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn pipe(fds: *mut i32) -> i32;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Write end of the self-pipe; -1 until [`watch`] installs it.
static PIPE_WR: AtomicI32 = AtomicI32::new(-1);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The handler: one async-signal-safe `write` of the signal number.
/// Everything else happens on the watcher thread.
extern "C" fn on_signal(sig: i32) {
    let fd = PIPE_WR.load(Ordering::Relaxed);
    if fd >= 0 {
        let byte = sig as u8;
        // SAFETY: `write(2)` is async-signal-safe, and `byte` outlives the
        // call; a failed write only loses this one wake-up.
        unsafe {
            let _ = write(fd, &byte, 1);
        }
    }
}

/// Install handlers for SIGINT and SIGTERM and spawn the watcher
/// thread, which calls `callback(signum)` once per delivered signal.
/// The callback runs on an ordinary thread — it may allocate, lock,
/// flush files, anything. Process-wide; the second caller wins nothing
/// and gets an error.
pub fn watch<F: Fn(i32) + Send + 'static>(callback: F) -> io::Result<()> {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return Err(io::Error::other("signal watcher already installed"));
    }
    let mut fds = [-1i32; 2];
    // SAFETY: `pipe(2)` writes exactly two descriptors into `fds`.
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (rd, wr) = (fds[0], fds[1]);
    PIPE_WR.store(wr, Ordering::SeqCst);
    let handler = on_signal as extern "C" fn(i32) as usize;
    // SAFETY: `on_signal` is an `extern "C"` function that only loads an
    // atomic and calls `write(2)`, both async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    thread::Builder::new().name("signal-watcher".into()).spawn(move || loop {
        let mut byte = 0u8;
        // SAFETY: reads at most one byte into `byte`, which outlives the call.
        let n = unsafe { read(rd, &mut byte, 1) };
        if n == 1 {
            callback(byte as i32);
        } else if n == 0 {
            break; // pipe closed: process is tearing down
        }
        // n < 0 (EINTR and friends): just retry the read.
    })?;
    Ok(())
}

/// Send `sig` to `pid` (the chaos tests' SIGKILL lever). Returns
/// whether the kernel accepted it.
pub fn send(pid: u32, sig: i32) -> bool {
    // SAFETY: `kill(2)` takes plain integers and touches no memory of ours.
    unsafe { kill(pid as i32, sig) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn a_delivered_signal_reaches_the_watcher_callback() {
        let (tx, rx) = mpsc::channel();
        watch(move |sig| {
            let _ = tx.send(sig);
        })
        .unwrap();
        // Deliver SIGTERM to ourselves; the handler forwards it through
        // the pipe to the watcher thread, which forwards it to us.
        assert!(send(std::process::id(), SIGTERM));
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("signal delivered");
        assert_eq!(got, SIGTERM);
        // Second install is refused, loudly.
        assert!(watch(|_| {}).is_err());
    }
}
