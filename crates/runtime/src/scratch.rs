//! Reusable per-rank scratch storage for parallel regions.

use std::cell::UnsafeCell;

use crate::partials::CachePadded;

/// One cache-padded scratch value per rank, allocated once per run and
/// reused across every region — so solver loops stop paying a heap
/// allocation (and first-touch page faults) per iteration inside the
/// timed section.
///
/// Same ownership discipline as [`crate::Partials`] and
/// [`crate::SharedMut`]: during a region, rank `t` may touch only slot
/// `t` (via [`RankScratch::rank_mut`]); between regions the master owns
/// every slot ([`RankScratch::get_mut`]). Slots are padded to 128 bytes
/// so adjacent ranks' scratch headers never false-share.
pub struct RankScratch<T> {
    slots: Vec<CachePadded<UnsafeCell<T>>>,
}

// SAFETY: the rank-ownership discipline above makes all accesses
// data-race free; `T: Send` because slots are created on the master and
// used from worker threads.
unsafe impl<T: Send> Sync for RankScratch<T> {}

impl<T> RankScratch<T> {
    /// One slot per rank, built by `init(rank)`.
    pub fn new(ranks: usize, mut init: impl FnMut(usize) -> T) -> Self {
        RankScratch {
            slots: (0..ranks).map(|t| CachePadded::new(UnsafeCell::new(init(t)))).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Rank `tid`'s scratch, from inside a region.
    ///
    /// # Safety
    ///
    /// The caller must be the thread owning rank `tid` of the current
    /// region, and must not let the borrow outlive the region — the same
    /// contract as [`crate::SharedMut`]'s disjoint writes, here enforced
    /// per whole slot rather than per element.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn rank_mut(&self, tid: usize) -> &mut T {
        &mut *self.slots[tid].get()
    }

    /// Exclusive access to one slot between regions (borrow-checked).
    pub fn get_mut(&mut self, tid: usize) -> &mut T {
        self.slots[tid].get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_own_slot() {
        let scratch = RankScratch::new(4, |t| vec![t; 8]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let scratch = &scratch;
                s.spawn(move || {
                    // SAFETY: thread `t` is the only one to touch slot `t`.
                    let v = unsafe { scratch.rank_mut(t) };
                    assert_eq!(v[0], t);
                    v.fill(t * 10);
                });
            }
        });
        let mut scratch = scratch;
        for t in 0..4 {
            assert_eq!(scratch.get_mut(t)[7], t * 10);
        }
    }

    #[test]
    fn slots_are_cache_padded() {
        let scratch = RankScratch::new(2, |_| 0u8);
        // SAFETY: one thread, and each borrow ends at the cast to an address.
        let a = unsafe { scratch.rank_mut(0) } as *mut u8 as usize;
        let b = unsafe { scratch.rank_mut(1) } as *mut u8 as usize;
        assert!(b.abs_diff(a) >= 128, "slots {a:#x}/{b:#x} share a padding unit");
    }
}
