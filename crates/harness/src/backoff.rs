//! Deterministic exponential backoff.
//!
//! Retrying immediately after a kill can re-collide with whatever
//! transient condition produced it (load spike, another cell's
//! stragglers still being reaped), so retries back off exponentially.
//! The usual cure for synchronized retries is random jitter — but this
//! repository's discipline is that *nothing* draws from OS randomness
//! or the wall clock: chaos runs must reproduce exactly from their
//! seeds. The jitter here is therefore drawn from the NPB `randlc`
//! linear-congruential generator, seeded from the sweep seed and the
//! cell index, exactly like [`npb_runtime::FaultPlan`] seeds its victim
//! choice: the same sweep replays with the same sleeps.

use std::time::Duration;

use npb_core::Randlc;

/// Backoff schedule for one cell's retries.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// Base delay before the first retry; doubles per retry.
    base_ms: u64,
    /// Upper clamp on any single delay.
    cap_ms: u64,
    /// The cell's jitter stream, advanced once per query.
    rng: Randlc,
}

/// Largest single backoff sleep (clamps the exponential).
pub const BACKOFF_CAP_MS: u64 = 10_000;

impl Backoff {
    /// Build the schedule for cell number `cell` of a sweep seeded with
    /// `seed`. Distinct cells get decorrelated jitter streams.
    pub fn new(seed: u64, cell: u64, base_ms: u64) -> Backoff {
        let mixed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(cell);
        Backoff { base_ms, cap_ms: BACKOFF_CAP_MS, rng: Randlc::from_seed(mixed) }
    }

    /// Delay to sleep before retry number `retry` (1-based: the first
    /// retry is `retry = 1`). Zero base means no backoff at all, which
    /// tests use to keep chaos suites fast.
    ///
    /// The exponential is `base * 2^(retry-1)` clamped to the cap, then
    /// jittered to 75–125% by the cell's LCG stream. `&mut self` because
    /// each query advances the stream — two retries of the same cell get
    /// different jitter, deterministically.
    pub fn delay(&mut self, retry: usize) -> Duration {
        if self.base_ms == 0 {
            return Duration::ZERO;
        }
        let exp = retry.saturating_sub(1).min(20) as u32;
        let raw = self.base_ms.saturating_mul(1u64 << exp).min(self.cap_ms);
        let jitter = 0.75 + 0.5 * self.rng.next_f64();
        Duration::from_millis((raw as f64 * jitter) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_cell() {
        let mut a = Backoff::new(7, 3, 100);
        let mut b = Backoff::new(7, 3, 100);
        for retry in 1..8 {
            assert_eq!(a.delay(retry), b.delay(retry), "retry {retry}");
        }
    }

    #[test]
    fn distinct_cells_get_distinct_jitter() {
        let d: Vec<Duration> = (0..8).map(|c| Backoff::new(1, c, 1000).delay(1)).collect();
        let unique: std::collections::HashSet<_> = d.iter().collect();
        assert!(unique.len() > 4, "cells should decorrelate, got {d:?}");
    }

    #[test]
    fn grows_exponentially_within_jitter_bounds() {
        let mut b = Backoff::new(42, 0, 100);
        for retry in 1..=6usize {
            let ms = b.delay(retry).as_millis() as u64;
            let raw = 100u64 << (retry - 1);
            assert!(ms >= raw * 3 / 4, "retry {retry}: {ms} < 75% of {raw}");
            assert!(ms <= raw * 5 / 4 + 1, "retry {retry}: {ms} > 125% of {raw}");
        }
    }

    #[test]
    fn caps_at_the_clamp() {
        let mut b = Backoff::new(1, 0, 1000);
        // 1000 * 2^9 would be 512 s; the clamp holds it at the cap
        // (plus at most 25% jitter).
        let ms = b.delay(10).as_millis() as u64;
        assert!(ms <= BACKOFF_CAP_MS * 5 / 4, "{ms}");
        // And huge retry counts don't overflow the shift.
        let ms = b.delay(500).as_millis() as u64;
        assert!(ms <= BACKOFF_CAP_MS * 5 / 4, "{ms}");
    }

    #[test]
    fn zero_base_disables_backoff() {
        let mut b = Backoff::new(1, 0, 0);
        assert_eq!(b.delay(1), Duration::ZERO);
        assert_eq!(b.delay(9), Duration::ZERO);
    }
}
