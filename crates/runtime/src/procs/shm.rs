//! The shared-memory segment of the `procs` backend: one `memfd`
//! mapping shared by the parent and every worker rank, carrying the
//! barrier words, per-rank status, per-rank integrity-hashed checkpoint
//! slots, and the benchmark's exchange areas.
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

use npb_core::guard::state_hash;

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

/// One rank's checkpoint slot: a double-buffered `(round, payload,
/// hash)` record with a flip-word commit protocol, exactly one writer
/// (the owning rank).
///
/// Two banks alternate: a commit writes round/hash/payload into the
/// *non-current* bank, then flips the `which` word. A crash mid-write
/// leaves `which` pointing at the previous intact image — a torn
/// commit never destroys the last committed round. The integrity hash
/// (the PR-3 hash over payload + round) backstops the flip word: if
/// the current bank is torn *despite* a completed flip (a short write
/// the storage lied about, or PR-8 fault injection), [`CkptSlot::load`]
/// rejects it and falls back to the other bank — recovery restores
/// from the previous committed round instead of round 0.
pub struct CkptSlot<'a> {
    seg: &'a ShmSegment,
    off: usize,
    payload_len: usize,
}

/// Slot layout: `which` u32 (+ pad to 8), then two banks of
/// (round u32, pad u32, hash u64, payload f64s).
pub const fn ckpt_slot_bytes(payload_len: usize) -> usize {
    8 + 2 * ckpt_bank_bytes(payload_len)
}

const fn ckpt_bank_bytes(payload_len: usize) -> usize {
    16 + 8 * payload_len
}

impl<'a> CkptSlot<'a> {
    /// View the slot at byte offset `off` (from [`ckpt_slot_bytes`]-sized
    /// reservations; must be 8-aligned).
    pub fn at(seg: &'a ShmSegment, off: usize, payload_len: usize) -> CkptSlot<'a> {
        assert!(off % 8 == 0, "checkpoint slot must be 8-aligned");
        CkptSlot { seg, off, payload_len }
    }

    /// The flip word: 0 = never committed, 1/2 = bank 0/1 is current.
    fn which(&self) -> &AtomicU32 {
        self.seg.atomic_u32(self.off)
    }

    fn bank_off(&self, bank: u32) -> usize {
        self.off + 8 + bank as usize * ckpt_bank_bytes(self.payload_len)
    }

    fn hash_of(&self, round: u32, payload: &[f64]) -> u64 {
        let round = [f64::from(round)];
        state_hash(&[&round[..], payload])
    }

    /// Commit a checkpoint: progress through `round` rounds, with the
    /// rank's `payload` of resumable state.
    pub fn save(&self, round: u32, payload: &[f64]) {
        let _ = self.save_faulted(round, payload, crate::WriteFault::Pass);
    }

    /// [`CkptSlot::save`] under an injected write fault ([`WriteFault`],
    /// PR-8): `Fail` refuses the commit outright (the previous image
    /// stays current — nothing written), `Short(n, _)` commits a *torn*
    /// image — only `n/8` payload elements land in the target bank but
    /// the full-state hash is stamped and the flip word advances, the
    /// exact lie a failing disk tells. Either fault surfaces as `Err`;
    /// the caller journals the degradation and keeps computing (the
    /// hash check quarantines the torn bank at restore time).
    pub fn save_faulted(
        &self,
        round: u32,
        payload: &[f64],
        fault: crate::WriteFault,
    ) -> io::Result<()> {
        assert_eq!(payload.len(), self.payload_len);
        let keep = match fault {
            crate::WriteFault::Pass => payload.len(),
            crate::WriteFault::Fail(e) => return Err(e),
            crate::WriteFault::Short(n, _) => (n / 8).min(payload.len()),
        };
        let target = match self.which().load(Ordering::SeqCst) {
            1 => 1,
            _ => 0,
        };
        let b = self.bank_off(target);
        // SAFETY: this rank is the slot's only writer, and it writes
        // the non-current bank; readers honor the flip-word protocol.
        unsafe {
            self.seg.slice_f64(b + 8, 1)[0] = f64::from_bits(self.hash_of(round, payload));
            self.seg.slice_f64(b + 16, keep).copy_from_slice(&payload[..keep]);
        }
        self.seg.atomic_u32(b).store(round, Ordering::SeqCst);
        self.which().store(target + 1, Ordering::SeqCst);
        match fault {
            crate::WriteFault::Short(_, e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Read one bank back, if its image hash-checks.
    fn load_bank(&self, bank: u32) -> Option<(u32, Vec<f64>)> {
        let b = self.bank_off(bank);
        let round = self.seg.atomic_u32(b).load(Ordering::SeqCst);
        // SAFETY: the recovery protocol (writer dead or idle) makes
        // this a stable snapshot; the hash check backstops.
        let (stored, payload) = unsafe {
            let h = self.seg.slice_f64(b + 8, 1)[0].to_bits();
            (h, self.seg.slice_f64(b + 16, self.payload_len).to_vec())
        };
        (stored == self.hash_of(round, &payload)).then_some((round, payload))
    }

    /// Read back the newest hash-valid committed checkpoint: the
    /// current bank, or — if that image is torn — the previous one.
    /// `None` means "restart this rank from round 0".
    pub fn load(&self) -> Option<(u32, Vec<f64>)> {
        let which = self.which().load(Ordering::SeqCst);
        if which == 0 {
            return None;
        }
        let cur = which - 1;
        self.load_bank(cur).or_else(|| self.load_bank(1 - cur))
    }

    /// Invalidate the slot (fresh run).
    pub fn clear(&self) {
        self.which().store(0, Ordering::SeqCst);
        // Poison both banks' hashes so a stale image can never
        // hash-check against a later incarnation's rounds.
        for bank in 0..2 {
            let b = self.bank_off(bank);
            // SAFETY: single writer; readers see which == 0 anyway.
            unsafe { self.seg.slice_f64(b + 8, 1)[0] = f64::from_bits(!0u64) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn checkpoint_slot_round_trips_and_rejects_corruption() {
        let mut lay = ShmLayout::new(1);
        let off = lay.alloc(ckpt_slot_bytes(3));
        let seg = ShmSegment::create(lay.segment_len(), 1).unwrap();
        let slot = CkptSlot::at(&seg, off, 3);
        assert!(slot.load().is_none(), "fresh slot is empty");
        slot.save(7, &[1.5, -2.0, 4096.0]);
        assert_eq!(slot.load(), Some((7, vec![1.5, -2.0, 4096.0])));
        // Tear the current bank's payload behind the slot's back: the
        // hash must veto, and with only one committed image ever there
        // is no older bank to fall back to.
        // SAFETY: the only process on the segment, and the slot holds no
        // view of it between calls.
        unsafe { seg.slice_f64(off + 8 + 16, 1)[0] = 9.0 };
        assert!(slot.load().is_none(), "integrity hash must reject a torn payload");
        // And a fresh save over the damage recovers the slot.
        slot.save(8, &[0.0, 0.0, 1.0]);
        assert_eq!(slot.load().map(|(r, _)| r), Some(8));
        slot.clear();
        assert!(slot.load().is_none());
    }

    #[test]
    fn torn_commit_falls_back_to_the_previous_committed_round() {
        use std::io::{Error, ErrorKind};
        let mut lay = ShmLayout::new(1);
        let off = lay.alloc(ckpt_slot_bytes(4));
        let seg = ShmSegment::create(lay.segment_len(), 1).unwrap();
        let slot = CkptSlot::at(&seg, off, 4);

        slot.save(1, &[1.0; 4]);
        slot.save(2, &[2.0; 4]);
        assert_eq!(slot.load().map(|(r, _)| r), Some(2));

        // A refused commit (injected ENOSPC) leaves round 2 current.
        let e = Error::new(ErrorKind::StorageFull, "injected enospc");
        assert!(slot.save_faulted(3, &[3.0; 4], crate::WriteFault::Fail(e)).is_err());
        assert_eq!(slot.load(), Some((2, vec![2.0; 4])), "failed commit is a no-op");

        // A *torn* commit (injected short write: 2 of 4 elements land,
        // flip word advances, full-state hash stamped) is rejected by
        // the hash check — and recovery restores the previous
        // committed round instead of restarting from 0.
        let e = Error::new(ErrorKind::WriteZero, "injected short write");
        assert!(slot.save_faulted(3, &[3.0; 4], crate::WriteFault::Short(16, e)).is_err());
        assert_eq!(
            slot.load(),
            Some((2, vec![2.0; 4])),
            "torn bank is vetoed; previous committed round survives"
        );

        // The next clean commit overwrites the torn bank and wins.
        slot.save(3, &[3.5; 4]);
        assert_eq!(slot.load(), Some((3, vec![3.5; 4])));
    }
}
