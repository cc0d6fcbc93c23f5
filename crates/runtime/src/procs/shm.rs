//! The shared-memory segment of the `procs` backend: one `memfd`
//! mapping shared by the parent and every worker rank, carrying the
//! barrier words, per-rank status, per-rank checkpoint slots (the
//! [`ShmBanks`] store of an `npb_core::ckpt` image), and the
//! benchmark's exchange areas.
//!
//! ## Segment layout
//!
//! Every segment starts with the fixed [`header`] (barrier words,
//! rank-status array), followed by benchmark-specific regions the
//! parent and workers both derive from the same [`ShmLayout`]
//! computation — there is no descriptor in the segment; determinism of
//! the layout code *is* the protocol (both sides run the same function
//! with the same parameters).
//!
//! ## Aliasing discipline
//!
//! The raw slice accessors are `unsafe`: the mapping is shared between
//! processes, so Rust cannot see the writers. The backend's safety
//! argument is phase discipline — a region of the segment has exactly
//! one writer between two barrier crossings, and the barrier's SeqCst
//! atomics provide the happens-before edge that publishes those writes
//! (release on arrive, acquire on observing the generation bump).

use std::io;
use std::sync::atomic::{AtomicU32, Ordering};

use npb_core::ckpt::BankStore;

use super::sys;

/// Byte offsets of the fixed header words, plus its total size.
pub mod header {
    /// Segment magic ("NPBp"), checked by workers at attach.
    pub const MAGIC: usize = 0;
    /// Worker rank count.
    pub const NRANKS: usize = 4;
    /// Round every rank restarts from after a recovery.
    pub const RESUME: usize = 8;
    /// Outer (parent-inclusive) barrier: generation + arrival count.
    pub const OUTER_GEN: usize = 12;
    pub const OUTER_COUNT: usize = 16;
    /// Inner (workers-only) barrier: generation + arrival count.
    pub const INNER_GEN: usize = 20;
    pub const INNER_COUNT: usize = 24;
    /// First per-rank status word ([`STATUS_*`](super) values), one u32
    /// per rank.
    pub const STATUS0: usize = 28;

    /// Expected value of the magic word.
    pub const MAGIC_VALUE: u32 = 0x4e50_4270; // "NPBp"

    /// Header size for `nranks` workers, padded to a cache line so the
    /// benchmark regions never share a line with the barrier words.
    pub fn len(nranks: usize) -> usize {
        (STATUS0 + 4 * nranks).next_multiple_of(64)
    }
}

/// Rank status values (`header::STATUS0` array).
pub const STATUS_SPAWNED: u32 = 0;
/// The rank attached the segment and entered its round loop.
pub const STATUS_RUNNING: u32 = 1;
/// The rank finished every round and is about to exit 0.
pub const STATUS_DONE: u32 = 2;

/// Deterministic bump allocator both sides run to agree on the segment
/// layout. Alignment is rounded up to 8 so `f64` regions are always
/// well-aligned; the header is carved out by [`ShmLayout::new`].
pub struct ShmLayout {
    next: usize,
}

impl ShmLayout {
    /// Start a layout for a segment serving `nranks` workers (the fixed
    /// header comes first).
    pub fn new(nranks: usize) -> ShmLayout {
        ShmLayout { next: header::len(nranks) }
    }

    /// Reserve `bytes` bytes, 8-aligned; returns the byte offset.
    pub fn alloc(&mut self, bytes: usize) -> usize {
        let off = self.next.next_multiple_of(8);
        self.next = off + bytes;
        off
    }

    /// Reserve room for `n` f64s; returns the byte offset.
    pub fn alloc_f64s(&mut self, n: usize) -> usize {
        self.alloc(8 * n)
    }

    /// Reserve room for `n` i32s; returns the byte offset.
    pub fn alloc_i32s(&mut self, n: usize) -> usize {
        self.alloc(4 * n)
    }

    /// Total segment length so far, page-rounded.
    pub fn segment_len(&self) -> usize {
        self.next.next_multiple_of(4096)
    }
}

/// One `memfd` + `mmap` shared segment. The parent creates it
/// ([`ShmSegment::create`]) before spawning ranks; each worker attaches
/// to the inherited fd ([`ShmSegment::attach`]).
pub struct ShmSegment {
    ptr: *mut u8,
    len: usize,
    fd: i32,
}

// SAFETY: the segment is plain shared memory; all concurrent access
// goes through atomics or the phase discipline documented above.
unsafe impl Send for ShmSegment {}
unsafe impl Sync for ShmSegment {}

impl ShmSegment {
    /// Create a fresh zero-filled segment of `len` bytes (parent side)
    /// and stamp the header for `nranks` workers.
    pub fn create(len: usize, nranks: usize) -> io::Result<ShmSegment> {
        let fd = sys::create_shared_fd(len)?;
        let ptr = match sys::map_shared(fd, len) {
            Ok(p) => p,
            Err(e) => {
                sys::close_fd(fd);
                return Err(e);
            }
        };
        let seg = ShmSegment { ptr, len, fd };
        seg.atomic_u32(header::NRANKS).store(nranks as u32, Ordering::SeqCst);
        seg.atomic_u32(header::MAGIC).store(header::MAGIC_VALUE, Ordering::SeqCst);
        Ok(seg)
    }

    /// Map the segment behind an inherited fd (worker side) and check
    /// the magic — attaching to the wrong fd must fail loudly, not
    /// corrupt someone's heap.
    pub fn attach(fd: i32, len: usize) -> io::Result<ShmSegment> {
        let ptr = sys::map_shared(fd, len)?;
        let seg = ShmSegment { ptr, len, fd };
        if seg.atomic_u32(header::MAGIC).load(Ordering::SeqCst) != header::MAGIC_VALUE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("fd {fd} is not an npb-procs segment (bad magic)"),
            ));
        }
        Ok(seg)
    }

    /// The inheritable fd workers attach to.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// A mapping is never empty (the header alone is non-zero sized).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shared atomic word at byte offset `off`.
    pub fn atomic_u32(&self, off: usize) -> &AtomicU32 {
        assert!(off % 4 == 0 && off + 4 <= self.len, "bad u32 offset {off}");
        // SAFETY: in-bounds, aligned, and the mapping lives as long as
        // `self`; atomics are the sanctioned shared-access type.
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }

    /// The per-rank status word.
    pub fn status(&self, rank: usize) -> &AtomicU32 {
        self.atomic_u32(header::STATUS0 + 4 * rank)
    }

    /// The shared f64 region at byte offset `off`.
    ///
    /// # Safety
    /// Caller must uphold the phase discipline: no other process writes
    /// this region between the barrier crossings that bracket the use.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_f64(&self, off: usize, n: usize) -> &mut [f64] {
        assert!(off % 8 == 0 && off + 8 * n <= self.len, "bad f64 region {off}+{n}");
        std::slice::from_raw_parts_mut(self.ptr.add(off) as *mut f64, n)
    }

    /// The shared i32 region at byte offset `off`.
    ///
    /// # Safety
    /// Same phase-discipline contract as [`ShmSegment::slice_f64`].
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_i32(&self, off: usize, n: usize) -> &mut [i32] {
        assert!(off % 4 == 0 && off + 4 * n <= self.len, "bad i32 region {off}+{n}");
        std::slice::from_raw_parts_mut(self.ptr.add(off) as *mut i32, n)
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        // SAFETY: ptr/len are exactly what map_shared returned; the
        // accessors all borrow `self`, so no reference outlives us.
        unsafe { sys::unmap(self.ptr, self.len) };
        sys::close_fd(self.fd);
    }
}

/// A procs checkpoint slot as the [`BankStore`] under a
/// [`Checkpoint`](npb_core::ckpt::Checkpoint): the [`ckpt_slot_bytes`]
/// reservation at `off`. The flip word and each bank's round are
/// shared atomics; the hash and the payload are plain words reached
/// through [`ShmSegment::slice_f64`].
///
/// Contract: a slot has one writer (its rank, or the parent for its
/// own slot), and every read and every restore (which repoints the
/// flip word) runs as that writer or with that writer dead, as the
/// parent's recovery kills every rank before it reads a slot.
pub struct ShmBanks<'a> {
    seg: &'a ShmSegment,
    off: usize,
    payload_len: usize,
}

/// Slot layout: the flip word u32 (+ pad to 8), then two banks of
/// (round u32, pad u32, hash u64, payload f64s).
pub const fn ckpt_slot_bytes(payload_len: usize) -> usize {
    8 + 2 * ckpt_bank_bytes(payload_len)
}

const fn ckpt_bank_bytes(payload_len: usize) -> usize {
    16 + 8 * payload_len
}

impl<'a> ShmBanks<'a> {
    /// The slot at byte offset `off` of `seg`, from a
    /// [`ckpt_slot_bytes`]-sized reservation (8-aligned).
    pub fn at(seg: &'a ShmSegment, off: usize, payload_len: usize) -> ShmBanks<'a> {
        assert!(off % 8 == 0, "checkpoint slot must be 8-aligned");
        ShmBanks { seg, off, payload_len }
    }

    fn bank_off(&self, bank: usize) -> usize {
        self.off + 8 + bank * ckpt_bank_bytes(self.payload_len)
    }
}

impl BankStore for ShmBanks<'_> {
    fn flip(&self) -> u32 {
        self.seg.atomic_u32(self.off).load(Ordering::SeqCst)
    }

    fn set_flip(&mut self, flip: u32) {
        self.seg.atomic_u32(self.off).store(flip, Ordering::SeqCst);
    }

    fn head(&self, bank: usize) -> (u32, u64) {
        let b = self.bank_off(bank);
        // SAFETY: the slot contract: no other process writes the slot
        // while its writer runs here or is dead.
        let hash = unsafe { self.seg.slice_f64(b + 8, 1)[0] }.to_bits();
        (self.seg.atomic_u32(b).load(Ordering::SeqCst), hash)
    }

    fn set_head(&mut self, bank: usize, round: u32, hash: u64) {
        let b = self.bank_off(bank);
        // SAFETY: the slot contract: this process is the slot's one
        // writer.
        unsafe { self.seg.slice_f64(b + 8, 1)[0] = f64::from_bits(hash) };
        self.seg.atomic_u32(b).store(round, Ordering::SeqCst);
    }

    fn payload(&self, bank: usize) -> &[f64] {
        // SAFETY: as in `head`; the view is bounded by `&self`.
        unsafe { self.seg.slice_f64(self.bank_off(bank) + 16, self.payload_len) }
    }

    fn payload_mut(&mut self, bank: usize) -> &mut [f64] {
        // SAFETY: as in `set_head`; `&mut self` makes the view the only
        // one this process holds.
        unsafe { self.seg.slice_f64(self.bank_off(bank) + 16, self.payload_len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_core::ckpt::{Checkpoint, HeapBanks};
    use npb_core::iofault::{FaultInjector, IoFaultKind, IoFaultPlan, WriteFault};

    #[test]
    fn layout_is_deterministic_and_aligned() {
        let mut a = ShmLayout::new(4);
        let mut b = ShmLayout::new(4);
        let off_a = (a.alloc_i32s(3), a.alloc_f64s(5), a.alloc(ckpt_slot_bytes(2)));
        let off_b = (b.alloc_i32s(3), b.alloc_f64s(5), b.alloc(ckpt_slot_bytes(2)));
        assert_eq!(off_a, off_b, "both sides must derive the same layout");
        assert_eq!(off_a.1 % 8, 0);
        assert!(off_a.0 >= header::len(4), "regions start after the header");
        assert_eq!(a.segment_len() % 4096, 0, "segment length is page-rounded");
    }

    #[test]
    fn segment_attach_sees_creator_writes_and_checks_magic() {
        let seg = ShmSegment::create(4096, 2).unwrap();
        seg.status(1).store(STATUS_DONE, Ordering::SeqCst);
        let view = ShmSegment::attach(seg.fd(), 4096).unwrap();
        assert_eq!(view.atomic_u32(header::NRANKS).load(Ordering::SeqCst), 2);
        assert_eq!(view.status(1).load(Ordering::SeqCst), STATUS_DONE);
        // A non-segment fd must be rejected by the magic check.
        let plain = sys::create_shared_fd(4096).unwrap();
        let p = ShmSegment::attach(plain, 4096);
        assert!(p.is_err(), "attach to a zeroed fd must fail the magic check");
        sys::close_fd(plain);
    }

    /// Every case runs once over each bank store: the guard's heap
    /// buffer, then a slot of a real memfd segment. A row is
    /// `test_name: case(payload_len, injection plan)`.
    macro_rules! on_both_stores {
        ($($test:ident: $case:ident($len:expr, $plan:expr);)*) => {$(
            #[test]
            fn $test() {
                cases::$case(Checkpoint::new(HeapBanks::new($len), $plan, SURFACE), $plan);
                let mut lay = ShmLayout::new(1);
                let off = lay.alloc(ckpt_slot_bytes($len));
                let seg = ShmSegment::create(lay.segment_len(), 1).unwrap();
                cases::$case(Checkpoint::new(ShmBanks::at(&seg, off, $len), $plan, SURFACE), $plan);
            }
        )*};
    }

    on_both_stores! {
        never_committed_image_restores_none: never_committed(4, None);
        zero_length_payload_reports_its_round: zero_length(0, None);
        newest_intact_image_wins: newest_wins(4, None);
        corrupted_payload_falls_back_to_the_older_image: corrupted_payload(4, None);
        corrupted_round_is_vetoed: corrupted_round(4, None);
        refused_enospc_commit_is_a_no_op: refused(4, plan(IoFaultKind::Enospc, 3));
        refused_eio_commit_is_a_no_op: refused(4, plan(IoFaultKind::Eio, 3));
        enospc_loses_at_most_the_inflight_commit: enospc_run(4, plan(IoFaultKind::Enospc, 42));
        torn_commit_is_vetoed_and_the_previous_round_survives:
            torn(4, plan(IoFaultKind::ShortWrite, 5));
        fallback_restore_repoints_so_a_second_torn_commit_spares_it:
            repoint(4, plan(IoFaultKind::ShortWrite, 2));
    }

    /// The fault stream every case draws from.
    const SURFACE: &str = "checkpoint";

    fn plan(kind: IoFaultKind, seed: u64) -> Option<IoFaultPlan> {
        Some(IoFaultPlan { kind, seed })
    }

    mod cases {
        use super::*;

        /// Which of the first `n` commits of 4 elements `plan` faults,
        /// replicated from its injector so a case asserts exact
        /// behaviour instead of probabilities.
        fn predicted(plan: Option<IoFaultPlan>, n: usize) -> Vec<bool> {
            let mut inj = FaultInjector::new(plan.expect("an armed plan"), SURFACE);
            (0..n).map(|_| !matches!(inj.on_write(4 * 8), WriteFault::Pass)).collect()
        }

        /// Restore into a fresh array; `newest_round` must agree first.
        fn restored<S: BankStore>(img: &mut Checkpoint<S>) -> Option<(u32, Vec<f64>)> {
            let newest = img.newest_round();
            let mut live = vec![f64::NAN; img.store_mut().payload_len()];
            let round = img.restore(&mut [&mut live]);
            assert_eq!(round, newest, "newest_round names the bank restore returns");
            round.map(|r| (r, live))
        }

        fn current<S: BankStore>(img: &mut Checkpoint<S>) -> usize {
            img.store_mut().flip() as usize - 1
        }

        fn state(r: u32) -> [f64; 4] {
            [f64::from(r); 4]
        }

        pub fn never_committed<S: BankStore>(mut img: Checkpoint<S>, _: Option<IoFaultPlan>) {
            assert_eq!(restored(&mut img), None);
        }

        /// IS commits round markers with no payload; the round alone
        /// must hash-check.
        pub fn zero_length<S: BankStore>(mut img: Checkpoint<S>, _: Option<IoFaultPlan>) {
            img.commit(3, &[&[]]).unwrap();
            assert_eq!(restored(&mut img), Some((3, vec![])));
        }

        pub fn newest_wins<S: BankStore>(mut img: Checkpoint<S>, _: Option<IoFaultPlan>) {
            img.commit(0, &[&state(1)]).unwrap();
            img.commit(4, &[&[2.0, 2.5], &[3.0, 3.5]]).unwrap();
            assert_eq!(img.commits(), 2);
            assert_eq!(restored(&mut img), Some((4, vec![2.0, 2.5, 3.0, 3.5])));
        }

        pub fn corrupted_payload<S: BankStore>(mut img: Checkpoint<S>, _: Option<IoFaultPlan>) {
            // The only image ever committed is damaged: nothing to fall
            // back to.
            img.commit(0, &[&state(0)]).unwrap();
            let bank = current(&mut img);
            img.store_mut().payload_mut(bank)[1] = 7.0;
            assert_eq!(restored(&mut img), None);
            // A commit over the damage recovers; damage the newer image
            // and the older one is restored.
            img.commit(1, &[&state(1)]).unwrap();
            img.commit(2, &[&state(2)]).unwrap();
            let bank = current(&mut img);
            img.store_mut().payload_mut(bank)[1] = 7.0;
            assert_eq!(restored(&mut img), Some((1, state(1).to_vec())));
        }

        pub fn corrupted_round<S: BankStore>(mut img: Checkpoint<S>, _: Option<IoFaultPlan>) {
            img.commit(1, &[&state(1)]).unwrap();
            img.commit(2, &[&state(2)]).unwrap();
            let bank = current(&mut img);
            let (round, hash) = img.store_mut().head(bank);
            img.store_mut().set_head(bank, round + 5, hash);
            assert_eq!(
                restored(&mut img),
                Some((1, state(1).to_vec())),
                "the hash covers the round"
            );
        }

        /// A refused commit writes nothing and leaves the previous
        /// image current.
        pub fn refused<S: BankStore>(mut img: Checkpoint<S>, plan: Option<IoFaultPlan>) {
            let trip = predicted(plan, 64).iter().position(|&t| t).expect("the plan trips") as u32;
            assert!(trip >= 1, "fixture: a commit lands before the refusal");
            for r in 0..trip {
                img.commit(r, &[&state(r)]).unwrap();
            }
            assert!(img.commit(trip, &[&state(trip)]).is_err());
            assert_eq!(img.commits(), trip as usize, "a refused commit does not flip");
            assert_eq!(restored(&mut img), Some((trip - 1, state(trip - 1).to_vec())));
        }

        /// A full disk stays full: the restore returns the newest commit
        /// that landed, never less.
        pub fn enospc_run<S: BankStore>(mut img: Checkpoint<S>, _: Option<IoFaultPlan>) {
            let landed: Vec<u32> =
                (0..16).filter(|&r| img.commit(r, &[&state(r)]).is_ok()).collect();
            assert!(landed.len() < 16, "enospc must trip within 16 commits");
            let newest = *landed.last().expect("some commits land before the disk fills");
            assert_eq!(restored(&mut img), Some((newest, state(newest).to_vec())));
        }

        /// A torn commit flips, but its hash vetoes it at restore: the
        /// previous round survives, and the next clean commit wins.
        pub fn torn<S: BankStore>(mut img: Checkpoint<S>, plan: Option<IoFaultPlan>) {
            let trips = predicted(plan, 64);
            let trip = trips.iter().position(|&t| t).expect("short-write trips");
            assert!(trip >= 1 && !trips[trip + 1], "fixture: one tear between clean commits");
            let trip = trip as u32;
            let torn = (0..=trip).filter(|&r| img.commit(r, &[&state(r)]).is_err()).count();
            assert_eq!(torn, 1, "exactly the predicted commit tore");
            assert_eq!(img.commits(), trip as usize + 1, "the torn commit still flipped");
            assert_eq!(restored(&mut img), Some((trip - 1, state(trip - 1).to_vec())));
            img.commit(trip + 1, &[&state(trip + 1)]).unwrap();
            assert_eq!(restored(&mut img), Some((trip + 1, state(trip + 1).to_vec())));
        }

        /// A fallback restore repoints the flip word at the bank it
        /// returned, so the next commit overwrites the torn bank, not
        /// the one intact image.
        pub fn repoint<S: BankStore>(mut img: Checkpoint<S>, plan: Option<IoFaultPlan>) {
            assert_eq!(predicted(plan, 3), [false, true, true], "fixture: clean, torn, torn");
            img.commit(1, &[&state(1)]).unwrap();
            assert!(img.commit(2, &[&state(2)]).is_err());
            assert_eq!(restored(&mut img), Some((1, state(1).to_vec())));
            assert!(img.commit(3, &[&state(3)]).is_err());
            assert_eq!(restored(&mut img), Some((1, state(1).to_vec())), "round 1 survives");
        }
    }
}
