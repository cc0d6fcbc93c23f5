//! The spin half of spin-then-park: the bounded adaptive spin every
//! waiter runs before parking on its condvar, and the environment
//! settings (`NPB_SPIN_US`, `NPB_REGION_TIMEOUT_MS`) a new team starts
//! with.
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

/// Parse the `NPB_REGION_TIMEOUT_MS` environment value: a non-negative
/// integer count of milliseconds (0 = watchdog disabled).
///
/// A malformed value (`"5s"`, `"-1"`, ...) used to be silently swallowed,
/// leaving the watchdog disabled with no signal that the requested safety
/// net was never armed; it is now an explicit error so
/// [`region_timeout_ms_from_env`] can warn.
fn parse_region_timeout_ms(raw: &str) -> Result<u64, String> {
    raw.trim().parse::<u64>().map_err(|_| {
        format!(
            "npb runtime: ignoring NPB_REGION_TIMEOUT_MS={raw:?}: expected a non-negative \
             integer count of milliseconds (e.g. 5000, not \"5s\"); the region watchdog \
             stays DISABLED"
        )
    })
}

/// Parse the `NPB_SPIN_US` environment value: a non-negative integer
/// count of microseconds (0 = pure park path, the paper's wait/notify
/// behavior). A malformed value is an explicit error so
/// [`spin_us_from_env`] can warn instead of silently changing the
/// synchronization mode.
fn parse_spin_us(raw: &str) -> Result<u64, String> {
    raw.trim().parse::<u64>().map_err(|_| {
        format!(
            "npb runtime: ignoring NPB_SPIN_US={raw:?}: expected a non-negative integer \
             count of microseconds (0 = pure park path); the spin budget stays at the \
             default {DEFAULT_SPIN_US} µs"
        )
    })
}

/// The watchdog timeout (ms, 0 = disabled) selected by
/// `NPB_REGION_TIMEOUT_MS`. A malformed value warns once on stderr
/// (naming the bad value) and leaves the watchdog disabled.
pub(crate) fn region_timeout_ms_from_env() -> u64 {
    match std::env::var("NPB_REGION_TIMEOUT_MS") {
        Ok(raw) => parse_region_timeout_ms(&raw).unwrap_or_else(|warning| {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("{warning}"));
            0
        }),
        Err(_) => 0,
    }
}

/// The spin budget (µs) selected by `NPB_SPIN_US`, or
/// [`DEFAULT_SPIN_US`] when unset. A malformed value warns once on
/// stderr (naming the bad value) and keeps the default.
pub(crate) fn spin_us_from_env() -> u64 {
    match std::env::var("NPB_SPIN_US") {
        Ok(raw) => parse_spin_us(&raw).unwrap_or_else(|warning| {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| eprintln!("{warning}"));
            DEFAULT_SPIN_US
        }),
        Err(_) => DEFAULT_SPIN_US,
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

    #[test]
    fn region_timeout_env_parsing_accepts_integers_only() {
        assert_eq!(parse_region_timeout_ms("5000"), Ok(5000));
        assert_eq!(parse_region_timeout_ms(" 250 "), Ok(250), "whitespace is tolerated");
        assert_eq!(parse_region_timeout_ms("0"), Ok(0), "0 = explicitly disabled");

        // Malformed values must be loud errors naming the bad value —
        // they used to be silently swallowed, leaving the watchdog
        // disabled with no signal.
        for bad in ["5s", "-1", "", "5000ms", "0x10", "1.5"] {
            let err = parse_region_timeout_ms(bad)
                .expect_err(&format!("{bad:?} must not parse as a timeout"));
            assert!(err.contains(&format!("{bad:?}")), "warning must name the value: {err}");
            assert!(err.contains("DISABLED"), "warning must state the consequence: {err}");
        }
    }

    #[test]
    fn spin_env_parsing_accepts_integers_only() {
        assert_eq!(parse_spin_us("100"), Ok(100));
        assert_eq!(parse_spin_us(" 0 "), Ok(0), "0 = pure park path");
        for bad in ["100us", "-5", "", "1.5"] {
            let err = parse_spin_us(bad).expect_err(&format!("{bad:?} must not parse"));
            assert!(err.contains(&format!("{bad:?}")), "warning must name the value: {err}");
            assert!(err.contains("default"), "warning must state the fallback: {err}");
        }
    }
}
