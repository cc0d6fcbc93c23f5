//! One two-bank checkpoint image: the commit protocol the SDC guard's
//! rollback store and every procs rank slot share.
//!
//! An image is a flip word and two banks of `(round, hash, payload)`.
//! A commit writes the bank the flip word does *not* name and then
//! flips: the flip is the commit point, so a writer that dies
//! mid-commit leaves the previous image current. The hash is
//! [`state_hash`](crate::state_hash) over the round and the payload,
//! stamped from the source, so it also vetoes an image whose bytes did
//! not all land (a torn write the flip cannot see) or were damaged
//! after landing. A restore tries the current bank, falls back to the
//! other, and repoints the flip word at the bank it returned, so the
//! next commit overwrites the bank that failed and never the one intact
//! image.
//!
//! Where the words live is a [`BankStore`]: [`HeapBanks`] for the
//! guard, a range of the procs shared segment in `npb-runtime`.
//!
//! Under `--io-inject` / `NPB_IO_INJECT` each commit consults the
//! image's [`FaultInjector`]: `enospc` and `eio` refuse the commit
//! (nothing is written, the previous image stays current), and
//! `short-write` tears it (a prefix of the payload lands under the full
//! hash and the flip still advances, the lie a failing disk tells).
//! Either way [`Checkpoint::commit`] returns the injected error for the
//! caller to report as `io-degraded`, and the run goes on.

use std::io;

use crate::guard::hash_array;
use crate::iofault::{FaultInjector, IoFaultPlan, WriteFault};

/// The words of a two-bank image; banks are `0` and `1`.
pub trait BankStore {
    /// The flip word: 0 before the first commit, then 1 + the current
    /// bank.
    fn flip(&self) -> u32;
    fn set_flip(&mut self, flip: u32);
    /// A bank's `(round, hash)`.
    fn head(&self, bank: usize) -> (u32, u64);
    fn set_head(&mut self, bank: usize, round: u32, hash: u64);
    fn payload(&self, bank: usize) -> &[f64];
    fn payload_mut(&mut self, bank: usize) -> &mut [f64];

    /// Payload length of each bank, in `f64`s.
    fn payload_len(&self) -> usize {
        self.payload(0).len()
    }
}

/// A [`BankStore`] on the heap.
#[derive(Debug)]
pub struct HeapBanks {
    flip: u32,
    heads: [(u32, u64); 2],
    banks: [Vec<f64>; 2],
}

impl HeapBanks {
    pub fn new(payload_len: usize) -> HeapBanks {
        HeapBanks {
            flip: 0,
            heads: [(0, 0); 2],
            banks: [vec![0.0; payload_len], vec![0.0; payload_len]],
        }
    }
}

impl BankStore for HeapBanks {
    fn flip(&self) -> u32 {
        self.flip
    }

    fn set_flip(&mut self, flip: u32) {
        self.flip = flip;
    }

    fn head(&self, bank: usize) -> (u32, u64) {
        self.heads[bank]
    }

    fn set_head(&mut self, bank: usize, round: u32, hash: u64) {
        self.heads[bank] = (round, hash);
    }

    fn payload(&self, bank: usize) -> &[f64] {
        &self.banks[bank]
    }

    fn payload_mut(&mut self, bank: usize) -> &mut [f64] {
        &mut self.banks[bank]
    }
}

/// [`state_hash`](crate::state_hash) of `[[round], payload]`, the
/// payload given as consecutive parts.
fn image_hash(round: u32, payload: &[&[f64]]) -> u64 {
    hash_array(hash_array(2, &[&[f64::from(round)]]), payload)
}

/// A two-bank checkpoint image over a [`BankStore`].
#[derive(Debug)]
pub struct Checkpoint<S> {
    store: S,
    inject: Option<FaultInjector>,
    /// Commits that flipped the image, torn ones included.
    commits: usize,
}

impl<S: BankStore> Checkpoint<S> {
    /// An image over `store` whose commits fault under `plan`, drawn
    /// from the stream of `surface` (`None` disarms).
    pub fn new(store: S, plan: Option<IoFaultPlan>, surface: &str) -> Checkpoint<S> {
        Checkpoint { store, inject: plan.map(|p| FaultInjector::new(p, surface)), commits: 0 }
    }

    /// Commit the concatenation of `parts` as the image of `round`.
    /// `Err` is an injected fault: the commit was refused (nothing
    /// written) or torn (flipped, but the hash vetoes it at restore).
    pub fn commit(&mut self, round: u32, parts: &[&[f64]]) -> io::Result<()> {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(len, self.store.payload_len(), "commit must fill the image's payload");
        let fault = match &mut self.inject {
            Some(inj) => inj.on_write(8 * len.max(1)),
            None => WriteFault::Pass,
        };
        let (keep, torn) = match fault {
            WriteFault::Pass => (len, None),
            WriteFault::Fail(e) => return Err(e),
            WriteFault::Short(bytes, e) => ((bytes / 8).min(len), Some(e)),
        };
        // The bank the flip word does not name (bank 0 before the first
        // commit).
        let bank = usize::from(self.store.flip() == 1);
        let dst = self.store.payload_mut(bank);
        let mut at = 0;
        for part in parts {
            let n = part.len().min(keep - at);
            dst[at..at + n].copy_from_slice(&part[..n]);
            at += n;
        }
        self.store.set_head(bank, round, image_hash(round, parts));
        self.store.set_flip(bank as u32 + 1);
        self.commits += 1;
        torn.map_or(Ok(()), Err)
    }

    /// Copy the newest image that hash-checks into `arrays` (split in
    /// order) and return its round; `None` means no intact image. The
    /// flip word is repointed at the returned bank, so a restore must
    /// run with no live writer (the writer dead, or the writer itself).
    pub fn restore(&mut self, arrays: &mut [&mut [f64]]) -> Option<u32> {
        let bank = self.intact()?;
        let mut src = self.store.payload(bank);
        let len: usize = arrays.iter().map(|a| a.len()).sum();
        assert_eq!(len, src.len(), "restore targets must match the image's payload");
        for dst in arrays.iter_mut() {
            let (head, rest) = src.split_at(dst.len());
            dst.copy_from_slice(head);
            src = rest;
        }
        self.store.set_flip(bank as u32 + 1);
        Some(self.store.head(bank).0)
    }

    /// The round [`Checkpoint::restore`] would return, hash-checked in
    /// place; copies and writes nothing.
    pub fn newest_round(&self) -> Option<u32> {
        self.intact().map(|bank| self.store.head(bank).0)
    }

    pub fn commits(&self) -> usize {
        self.commits
    }

    /// The store under the image (tests corrupt it in place).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// The current bank if it hash-checks, else the other one if it does.
    fn intact(&self) -> Option<usize> {
        let current = (self.store.flip() as usize).checked_sub(1)?;
        [current, 1 - current].into_iter().find(|&bank| {
            let (round, hash) = self.store.head(bank);
            hash == image_hash(round, &[self.store.payload(bank)])
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_hash_is_state_hash_of_the_round_and_the_payload() {
        let (a, b) = ([1.5, -2.0], [4096.0]);
        let flat = [1.5, -2.0, 4096.0];
        assert_eq!(image_hash(7, &[&a, &b]), crate::state_hash(&[&[7.0], &flat]));
        assert_ne!(image_hash(8, &[&flat]), image_hash(7, &[&flat]), "the round is hashed");
    }
}
