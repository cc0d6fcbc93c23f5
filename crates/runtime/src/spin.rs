//! The spin half of spin-then-park: the bounded adaptive spin every
//! waiter runs before parking on its condvar, and the budget a new team
//! starts with.
//!
//! Spinning is adaptive: `spin_loop` hints with exponential backoff,
//! degrading to `yield_now` once the backoff saturates so an
//! oversubscribed machine (more ranks than cores) still makes progress;
//! a single-CPU host skips the `spin_loop` phase outright and yields on
//! every probe, because a pause can never observe progress there.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Default spin budget in microseconds before a waiter parks on its
/// condvar. Sized so that back-to-back regions (the NPB hot path: a
/// kernel dispatches thousands of regions with only short serial gaps
/// between them) keep every rank on the lock-free path, while a team
/// idling between benchmarks parks within a scheduler quantum.
pub const DEFAULT_SPIN_US: u64 = 100;

/// Spin backoff saturation: after this many `spin_loop` hints per probe
/// the waiter starts yielding its timeslice instead, so spinning stays
/// sound when ranks outnumber cores (`yield_now` lets the awaited thread
/// run; pure `spin_loop` would burn the whole quantum).
const MAX_SPIN_BACKOFF: u32 = 64;

/// True when the host exposes exactly one logical CPU. Cached: the
/// answer decides the spin strategy on every probe of the hot path.
fn single_cpu() -> bool {
    static ONE: OnceLock<bool> = OnceLock::new();
    *ONE.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() == 1))
}

/// Bounded adaptive spin: probe `ready` until it yields a value or the
/// budget expires (`None`). Backoff doubles the `spin_loop` hints per
/// probe up to [`MAX_SPIN_BACKOFF`], then degrades to `yield_now` so an
/// oversubscribed machine still schedules the thread being awaited. On a
/// single-CPU host the `spin_loop` phase is skipped entirely — the
/// awaited thread cannot run while we pause, so every hint is pure
/// wasted latency (and under a hypervisor with pause-loop exiting, a
/// trap) — and each probe yields the timeslice instead.
pub(crate) fn spin_wait<T>(spin_us: u64, mut ready: impl FnMut() -> Option<T>) -> Option<T> {
    if let Some(v) = ready() {
        return Some(v);
    }
    if spin_us == 0 {
        return None;
    }
    let deadline = Instant::now() + Duration::from_micros(spin_us);
    let mut backoff = if single_cpu() { MAX_SPIN_BACKOFF + 1 } else { 1 };
    loop {
        if backoff <= MAX_SPIN_BACKOFF {
            for _ in 0..backoff {
                std::hint::spin_loop();
            }
            backoff <<= 1;
        } else {
            std::thread::yield_now();
        }
        if let Some(v) = ready() {
            return Some(v);
        }
        if Instant::now() >= deadline {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_wait_honours_a_zero_budget() {
        // spin_us = 0 must probe exactly once and never busy-wait.
        let mut calls = 0;
        let r: Option<()> = spin_wait(0, || {
            calls += 1;
            None
        });
        assert!(r.is_none());
        assert_eq!(calls, 1);
    }
}
