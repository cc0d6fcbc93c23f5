//! Deterministic per-thread reduction slots.

use std::cell::UnsafeCell;

/// Pads and aligns a value to 128 bytes — two 64-byte lines, covering the
/// spatial-prefetcher pairing on x86 and the 128-byte lines of some ARM
/// parts — so adjacent per-thread slots never false-share. Shared with
/// the team's per-rank dispatch/arrival words and [`crate::RankScratch`].
#[repr(align(128))]
pub(crate) struct CachePadded<T>(T);

impl<T> CachePadded<T> {
    pub(crate) fn new(v: T) -> Self {
        CachePadded(v)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Cache-padded per-thread accumulator slots for reductions.
///
/// Each thread of a parallel region writes only the slot of its own rank;
/// after the region the master combines the slots **in rank order**, so a
/// reduction is bit-deterministic for a fixed thread count (the OpenMP
/// NPB has the same property with its static schedule).
pub struct Partials {
    slots: Vec<CachePadded<UnsafeCell<f64>>>,
}

// SAFETY: the usage discipline (thread t writes only slot t during a
// region; combination happens after the region's barrier) makes all
// accesses data-race free.
unsafe impl Sync for Partials {}

impl Partials {
    /// `n` zeroed slots.
    pub fn new(n: usize) -> Self {
        Partials { slots: (0..n).map(|_| CachePadded::new(UnsafeCell::new(0.0))).collect() }
    }

    /// Store thread `tid`'s partial result.
    ///
    /// Must only be called by the thread owning rank `tid` during a
    /// region (see type-level discipline above).
    #[inline]
    pub fn set(&self, tid: usize, v: f64) {
        // SAFETY: only rank `tid` writes slot `tid`, and nobody reads it
        // before the barrier or region end that follows.
        unsafe {
            *self.slots[tid].get() = v;
        }
    }

    /// Combine the slots in rank order with `+`.
    pub fn sum(&self) -> f64 {
        // SAFETY: combination follows every rank's `set` across a
        // barrier or the region's end.
        self.slots.iter().map(|s| unsafe { *s.get() }).sum()
    }

    /// Combine the slots in rank order with `max`.
    pub fn max(&self) -> f64 {
        // SAFETY: as for `sum`.
        self.slots.iter().map(|s| unsafe { *s.get() }).fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_in_rank_order() {
        let p = Partials::new(4);
        for t in 0..4 {
            p.set(t, (t + 1) as f64);
        }
        assert_eq!(p.sum(), 10.0);
        assert_eq!(p.max(), 4.0);
    }

    #[test]
    fn concurrent_disjoint_slots() {
        let p = Partials::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let p = &p;
                s.spawn(move || {
                    for i in 1..=1000 {
                        p.set(t, (t * i) as f64);
                    }
                });
            }
        });
        assert_eq!(p.sum(), 28_000.0);
        assert_eq!(p.max(), 7_000.0);
    }
}
