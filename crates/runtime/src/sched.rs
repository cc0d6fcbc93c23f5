//! Loop scheduling policies: static block, guided self-scheduling, and
//! trace-driven feedback partitioning.
//!
//! The paper's runtime (and the OpenMP NPB it copies) assigns loop
//! iterations with a *static* block partition — [`crate::partition`] —
//! which is optimal when every iteration costs the same and every rank
//! runs unhindered. The per-region trace layer measures exactly when
//! that assumption fails (per-rank max/mean imbalance), and this module
//! closes the loop with two adaptive policies selectable per team
//! ([`crate::Team::set_sched`], `--sched`):
//!
//! * [`Sched::Guided`] — chunked self-scheduling: ranks claim
//!   exponentially decaying chunks (`remaining / (2·nparts)`, clamped to
//!   [`GUIDED_MIN_CHUNK`]) from a shared cache-padded work counter, so a
//!   preempted or slow rank simply claims fewer chunks. Claim state
//!   lives in a small ring of counters reset by the master at region
//!   dispatch (while workers are provably quiescent), and every guided
//!   loop ends at a barrier — which restores the owner-computes phase
//!   alignment the static schedule gets for free.
//! * [`Sched::Feedback`] — trace-driven re-partitioning: each rank
//!   records how long its contiguous share took ([`FeedbackEntry`],
//!   parity-double-buffered so the hot path needs no locks and no new
//!   shared-counter contention), and the next visit of the same loop
//!   re-splits the boundaries so predicted finish times equalize —
//!   damped halfway per visit and quantized to a 1/256 share grid
//!   (hysteresis), falling back to static whenever the recorded timings
//!   are missing, torn, or too small to trust.
//!
//! Both policies preserve the deterministic rank-ordered reduction
//! contract: reductions stay on the static [`crate::Par::range`] path
//! (a floating-point sum grouped by dynamically claimed chunks would be
//! a different rounding), so only elementwise/disjoint-write loops and
//! integer accumulations are rescheduled — and verification stays
//! bitwise (see `DESIGN.md`).

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Loop scheduling policy of a team (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sched {
    /// OpenMP-style static block partition — the paper's model, and the
    /// bit-for-bit default.
    #[default]
    Static,
    /// Guided chunked self-scheduling from a shared work counter.
    Guided,
    /// Trace-driven feedback re-partitioning with static fallback.
    Feedback,
}

impl Sched {
    /// Stable lower-case label (`--sched` values, profiles, manifests).
    pub fn label(self) -> &'static str {
        match self {
            Sched::Static => "static",
            Sched::Guided => "guided",
            Sched::Feedback => "feedback",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Sched {
        match v {
            1 => Sched::Guided,
            2 => Sched::Feedback,
            _ => Sched::Static,
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            Sched::Static => 0,
            Sched::Guided => 1,
            Sched::Feedback => 2,
        }
    }
}

impl std::str::FromStr for Sched {
    type Err = String;

    fn from_str(s: &str) -> Result<Sched, String> {
        match s.trim() {
            "static" => Ok(Sched::Static),
            "guided" => Ok(Sched::Guided),
            "feedback" => Ok(Sched::Feedback),
            other => Err(format!(
                "unknown scheduling policy {other:?} (expected static|guided|feedback)"
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Guided self-scheduling
// ---------------------------------------------------------------------

/// Claim-counter ring slots per team. A guided loop ends at a barrier,
/// so a slot is quiescent long before it is reused; the ring (plus the
/// generation tag in each claim word) is belt-and-braces against a rank
/// replaying a stale counter after a poisoned region.
pub(crate) const GUIDED_RING: usize = 16;

/// Minimum claimed chunk: below this, claim-CAS traffic costs more than
/// the imbalance it could fix.
pub(crate) const GUIDED_MIN_CHUNK: usize = 16;

/// Ring-slot reset value stored by the master at region dispatch. Its
/// generation half (`u32::MAX`) can never equal a real invocation
/// number, so the first claimer of every invocation starts from 0.
pub(crate) const GUIDED_RESET: u64 = u64::MAX;

/// Guided chunk decay: half the fair share of what remains, clamped.
#[inline]
pub(crate) fn guided_chunk(remaining: usize, nparts: usize) -> usize {
    (remaining / (2 * nparts)).max(GUIDED_MIN_CHUNK).min(remaining)
}

/// Pack an invocation generation and a claim position into one CAS word.
#[inline]
pub(crate) fn pack_claim(gen: u32, pos: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(pos)
}

/// Inverse of [`pack_claim`].
#[inline]
pub(crate) fn unpack_claim(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

// ---------------------------------------------------------------------
// Feedback partitioning
// ---------------------------------------------------------------------

/// Widest team the feedback table records; wider teams fall back to
/// static (the claim word packs one slot per rank).
pub(crate) const FEEDBACK_MAX_RANKS: usize = 32;

/// Loop extents must fit the packed data word's length field.
pub(crate) const FEEDBACK_MAX_LEN: usize = (1 << 28) - 1;

/// Per-rank compute times below this are timer noise, not signal; the
/// re-split falls back to static rather than chase it.
pub(crate) const FEEDBACK_MIN_DT_NS: u64 = 1_000;

/// Distinct (site, extent) loops the table can track per team; probing
/// past a full table falls back to static, never blocks.
const TABLE_ENTRIES: usize = 64;

/// Bounded linear probe on hash collision.
const PROBE_LIMIT: usize = 8;

/// Share-grid quantum: re-split boundaries move in 1/256 steps of the
/// extent, so timing jitter below ~0.4% of a share cannot make
/// boundaries oscillate (the hysteresis half of the policy).
const SHARE_GRID: f64 = 256.0;

/// Key a loop by its source location and extent. The extent is part of
/// the key so a site partitioning different lengths (MG's per-level
/// grids) gets one timing history per length.
pub(crate) fn site_key(site: &'static std::panic::Location<'static>, len: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    mix(site.file().as_ptr() as u64);
    mix(u64::from(site.line()));
    mix(u64::from(site.column()));
    mix(len as u64);
    // 0 marks an empty table slot; nudge a (vanishingly unlikely) zero.
    h | 1
}

/// One tracked loop: per-rank timing slots, parity double-buffered.
///
/// Rank `r` at visit `k` *reads* every rank's bank `(k−1) & 1` slot —
/// written at visit `k−1` — and *writes* only its own bank `k & 1` slot,
/// so a slot is never read and written in the same visit and the hot
/// path needs no locks ("zero new hot-path atomics" beyond the one
/// Release store of each rank's own result). Every slot is stamped with
/// `(history generation, visit)`: the re-split is used only when all
/// `nparts` read-bank stamps are current-generation and mutually equal,
/// a check every rank evaluates to the same answer — so after any
/// divergence (a poisoned region, a rollback reset bumping the
/// generation) every rank degrades to the *same* static fallback
/// instead of computing from torn history.
pub(crate) struct FeedbackEntry {
    /// [`site_key`] that owns this slot; 0 = empty (insert-once CAS).
    key: AtomicU64,
    /// Per-rank visit counters, packed `(generation, visit)`; each rank
    /// reads and writes only its own (lazily rebased when the team's
    /// history generation moved).
    visits: [AtomicU64; FEEDBACK_MAX_RANKS],
    /// Per-rank `(generation, visit)` stamps, one per parity bank.
    stamps: [[AtomicU64; FEEDBACK_MAX_RANKS]; 2],
    /// Per-rank packed `(dt_ns << 28) | assigned_len`, one per bank.
    data: [[AtomicU64; FEEDBACK_MAX_RANKS]; 2],
}

impl FeedbackEntry {
    fn new() -> FeedbackEntry {
        FeedbackEntry {
            key: AtomicU64::new(0),
            visits: [const { AtomicU64::new(0) }; FEEDBACK_MAX_RANKS],
            stamps: [
                [const { AtomicU64::new(0) }; FEEDBACK_MAX_RANKS],
                [const { AtomicU64::new(0) }; FEEDBACK_MAX_RANKS],
            ],
            data: [
                [const { AtomicU64::new(0) }; FEEDBACK_MAX_RANKS],
                [const { AtomicU64::new(0) }; FEEDBACK_MAX_RANKS],
            ],
        }
    }

    /// This rank's visit number under history generation `gen`; a stale
    /// stored generation (the team healed, or a rollback reset the
    /// history) rebases this rank's count to 0 — every rank does the
    /// same lazily, so post-reset visit counts stay mutually consistent.
    pub(crate) fn visit(&self, rank: usize, gen: u32) -> u32 {
        let (g, k) = unpack_claim(self.visits[rank].load(Ordering::Relaxed));
        if g == gen {
            k
        } else {
            0
        }
    }

    /// The re-split for `rank` at visit `k`, if last visit's timings are
    /// complete, current, and trustworthy; `None` = use static.
    pub(crate) fn boundaries(
        &self,
        gen: u32,
        k: u32,
        len: usize,
        nparts: usize,
    ) -> Option<Box<[usize]>> {
        let prev = k.checked_sub(1)?;
        let bank = (prev & 1) as usize;
        let want = pack_claim(gen, prev);
        let mut dts = [0u64; FEEDBACK_MAX_RANKS];
        let mut lens = [0u64; FEEDBACK_MAX_RANKS];
        for r in 0..nparts {
            if self.stamps[bank][r].load(Ordering::Acquire) != want {
                return None;
            }
            let (dt, l) = unpack_data(self.data[bank][r].load(Ordering::Relaxed));
            dts[r] = dt;
            lens[r] = l;
        }
        feedback_boundaries(len, nparts, &dts[..nparts], &lens[..nparts])
    }

    /// Record this rank's share and compute time for visit `k`, and
    /// advance its visit counter. The trailing barrier of the scheduled
    /// loop publishes these stores to next visit's readers.
    pub(crate) fn record(&self, rank: usize, gen: u32, k: u32, dt_ns: u64, assigned: usize) {
        let bank = (k & 1) as usize;
        self.data[bank][rank].store(pack_data(dt_ns, assigned), Ordering::Relaxed);
        self.stamps[bank][rank].store(pack_claim(gen, k), Ordering::Release);
        self.visits[rank].store(pack_claim(gen, k.wrapping_add(1)), Ordering::Relaxed);
    }
}

/// Pack a compute time and an assigned extent into one slot word
/// (`dt` saturates at ~68 s; `len` is capped by [`FEEDBACK_MAX_LEN`]).
#[inline]
fn pack_data(dt_ns: u64, len: usize) -> u64 {
    (dt_ns.min((1 << 36) - 1) << 28) | (len as u64 & ((1 << 28) - 1))
}

#[inline]
fn unpack_data(word: u64) -> (u64, u64) {
    (word >> 28, word & ((1 << 28) - 1))
}

/// The per-team feedback table: open-addressed, insert-once, lock-free.
///
/// Within one team, concurrent lookups always carry the same key (ranks
/// are SPMD between barriers), so the only CAS race is benign same-key
/// insertion; a full probe window means "untracked", which every rank
/// concludes identically.
pub(crate) struct SchedTable {
    entries: Box<[FeedbackEntry]>,
}

impl SchedTable {
    pub(crate) fn new() -> SchedTable {
        SchedTable { entries: (0..TABLE_ENTRIES).map(|_| FeedbackEntry::new()).collect() }
    }

    pub(crate) fn lookup_or_insert(&self, key: u64) -> Option<&FeedbackEntry> {
        for i in 0..PROBE_LIMIT {
            let e = &self.entries[(key as usize).wrapping_add(i) % TABLE_ENTRIES];
            match e.key.load(Ordering::Acquire) {
                k if k == key => return Some(e),
                0 => match e.key.compare_exchange(0, key, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => return Some(e),
                    Err(cur) if cur == key => return Some(e),
                    Err(_) => continue,
                },
                _ => continue,
            }
        }
        None
    }
}

/// Re-split `0..len` from last visit's per-rank `(dt, assigned len)`:
/// move each rank's share halfway from its current share toward the
/// throughput-proportional one (the split that equalizes predicted
/// finish times), quantized to the 1/[`SHARE_GRID`] grid.
///
/// Returns `None` — use static — when any rank's record is untrustworthy
/// (zero-length share, sub-noise-floor time). Pure integer/f64 function
/// of its inputs, so every rank computes identical boundaries.
pub(crate) fn feedback_boundaries(
    len: usize,
    nparts: usize,
    dts: &[u64],
    lens: &[u64],
) -> Option<Box<[usize]>> {
    if nparts < 2 || len < nparts {
        return None;
    }
    let mut tps = [0f64; FEEDBACK_MAX_RANKS];
    let mut tp_sum = 0f64;
    for r in 0..nparts {
        if lens[r] == 0 || dts[r] < FEEDBACK_MIN_DT_NS {
            return None;
        }
        tps[r] = lens[r] as f64 / dts[r] as f64;
        tp_sum += tps[r];
    }
    if !(tp_sum.is_finite() && tp_sum > 0.0) {
        return None;
    }
    // Damped move: halfway from the share each rank actually had toward
    // its throughput-proportional target — geometric convergence to the
    // equalizing split without chasing one noisy sample all the way.
    let uniform = 1.0 / nparts as f64;
    let mut shares = [0f64; FEEDBACK_MAX_RANKS];
    let mut share_sum = 0f64;
    for r in 0..nparts {
        let current = lens[r] as f64 / len as f64;
        let target = tps[r] / tp_sum;
        // Clamp so one wild sample cannot starve (or monopolize) a rank.
        let s = (0.5 * current + 0.5 * target).clamp(uniform * 0.25, uniform * 4.0);
        shares[r] = s;
        share_sum += s;
    }
    let mut bounds = vec![0usize; nparts + 1];
    let mut cum = 0f64;
    for r in 0..nparts {
        cum += shares[r] / share_sum;
        let q = (cum * SHARE_GRID).round() / SHARE_GRID;
        bounds[r + 1] = ((q * len as f64).round() as usize).clamp(bounds[r], len);
    }
    bounds[nparts] = len;
    Some(bounds.into_boxed_slice())
}

/// Check a boundary table tiles `0..len` (contiguous ordered parts).
#[cfg(test)]
fn tiles(bounds: &[usize], len: usize) -> bool {
    bounds.first() == Some(&0)
        && bounds.last() == Some(&len)
        && bounds.windows(2).all(|w| w[0] <= w[1])
}

/// A contiguous ordered share of `lo..hi` handed out by
/// [`crate::Par::ordered_split`], with the hook to report how much of
/// the elapsed wall time was actual compute (LU's pipelined sweeps wait
/// on point-to-point flags *inside* the loop; charging those waits to
/// the timing history would re-split toward the wrong boundaries).
/// Close it with [`crate::Par::ordered_finish`].
pub struct OrderedSplit<'t> {
    pub(crate) range: Range<usize>,
    /// `(entry, generation, visit)` when this split records feedback
    /// history; `None` on the static/guided (and serial) paths.
    pub(crate) rec: Option<(&'t FeedbackEntry, u32, u32)>,
}

impl OrderedSplit<'_> {
    /// The contiguous index range this rank owns.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// Whether [`crate::Par::ordered_finish`] will persist the reported
    /// busy time. `false` on the static/guided/serial paths, so callers
    /// can skip their timer reads entirely — static must add no clocks.
    pub fn records(&self) -> bool {
        self.rec.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_parses_and_labels_round_trip() {
        for s in [Sched::Static, Sched::Guided, Sched::Feedback] {
            assert_eq!(s.label().parse::<Sched>().unwrap(), s);
            assert_eq!(Sched::from_u8(s.as_u8()), s);
        }
        assert!("gang".parse::<Sched>().is_err());
        let err = "guidedd".parse::<Sched>().unwrap_err();
        assert!(err.contains("guidedd") && err.contains("static"), "{err}");
    }

    #[test]
    fn guided_chunks_decay_and_cover() {
        // Draining a counter with the guided formula visits every index
        // exactly once, in decaying chunk sizes.
        for (len, nparts) in [(0usize, 4usize), (5, 4), (1000, 4), (1 << 20, 8)] {
            let mut pos = 0usize;
            let mut last = usize::MAX;
            while pos < len {
                let c = guided_chunk(len - pos, nparts);
                assert!(c >= 1 && c <= len - pos);
                assert!(
                    c <= last.max(GUIDED_MIN_CHUNK),
                    "chunks grow: {c} after {last} (len {len})"
                );
                last = c;
                pos += c;
            }
            assert_eq!(pos, len);
        }
    }

    #[test]
    fn claim_words_round_trip() {
        for (g, p) in [(0u32, 0u32), (7, 123), (u32::MAX - 1, u32::MAX)] {
            assert_eq!(unpack_claim(pack_claim(g, p)), (g, p));
        }
        assert_eq!(unpack_claim(GUIDED_RESET), (u32::MAX, u32::MAX));
        let (dt, l) = unpack_data(pack_data(12_345, 999));
        assert_eq!((dt, l), (12_345, 999));
        // dt saturates instead of corrupting the length field.
        let (dt, l) = unpack_data(pack_data(u64::MAX, FEEDBACK_MAX_LEN));
        assert_eq!((dt, l), ((1 << 36) - 1, FEEDBACK_MAX_LEN as u64));
    }

    #[test]
    fn feedback_converges_toward_equal_finish_times() {
        // Rank 1 runs 3x slower per iteration; iterate measure→re-split
        // with ideal timings and the predicted finish-time spread must
        // shrink toward 1 (share ratio → 3:1 toward the fast rank).
        let len = 4096usize;
        let speed = [3.0f64, 1.0]; // iterations per ns
        let mut bounds: Vec<usize> = vec![0, len / 2, len];
        for _ in 0..12 {
            let lens: Vec<u64> = (0..2).map(|r| (bounds[r + 1] - bounds[r]) as u64).collect();
            let dts: Vec<u64> = (0..2).map(|r| (lens[r] as f64 / speed[r] * 1e3) as u64).collect();
            match feedback_boundaries(len, 2, &dts, &lens) {
                Some(b) => {
                    assert!(tiles(&b, len), "{b:?}");
                    bounds = b.to_vec();
                }
                None => panic!("clean timings must re-split"),
            }
        }
        let fast = bounds[1] as f64;
        let slow = (len - bounds[1]) as f64;
        let ratio = fast / slow;
        assert!(
            (ratio - 3.0).abs() < 0.35,
            "converged share ratio {ratio} (bounds {bounds:?}), want ~3"
        );
    }

    #[test]
    fn feedback_falls_back_to_static_on_noise() {
        // Sub-microsecond timings are noise: no re-split.
        assert!(feedback_boundaries(1000, 2, &[500, 900], &[500, 500]).is_none());
        // A rank with an empty share has no throughput sample.
        assert!(feedback_boundaries(1000, 2, &[5_000, 5_000], &[1000, 0]).is_none());
        // Tiny extents are not worth re-splitting.
        assert!(feedback_boundaries(1, 2, &[5_000, 5_000], &[1, 0]).is_none());
    }

    #[test]
    fn feedback_boundaries_always_tile() {
        let mut rng = npb_core::Randlc::new(npb_core::SEED_DEFAULT);
        for _ in 0..500 {
            let len = 16 + (rng.next_f64() * 100_000.0) as usize;
            let nparts = 2 + (rng.next_f64() * 14.0) as usize;
            let mut lens = vec![0u64; nparts];
            let mut rest = len;
            for r in 0..nparts - 1 {
                let take = ((rng.next_f64() * rest as f64) as usize).min(rest);
                lens[r] = take as u64;
                rest -= take;
            }
            lens[nparts - 1] = rest as u64;
            let dts: Vec<u64> =
                (0..nparts).map(|_| 2_000 + (rng.next_f64() * 1e7) as u64).collect();
            if let Some(b) = feedback_boundaries(len, nparts, &dts, &lens) {
                assert!(tiles(&b, len), "len {len} nparts {nparts}: {b:?}");
            }
        }
    }

    #[test]
    fn feedback_table_is_insert_once_and_bounded() {
        let t = SchedTable::new();
        let a = site_key(std::panic::Location::caller(), 100);
        let e1 = t.lookup_or_insert(a).expect("insert") as *const _;
        let e2 = t.lookup_or_insert(a).expect("lookup") as *const _;
        assert_eq!(e1, e2, "same key resolves to the same entry");
        // Saturate the table: lookups past capacity yield None (static
        // fallback), never a bogus entry.
        let mut inserted = 0;
        for i in 0..10 * TABLE_ENTRIES as u64 {
            if t.lookup_or_insert(a.wrapping_add(1 + i * 0x9E37_79B9)).is_some() {
                inserted += 1;
            }
        }
        assert!(inserted < 10 * TABLE_ENTRIES, "a full table must refuse");
        assert_eq!(t.lookup_or_insert(a).expect("old keys survive saturation") as *const _, e1);
    }

    #[test]
    fn feedback_entry_stamps_gate_torn_history() {
        let t = SchedTable::new();
        let key = site_key(std::panic::Location::caller(), 64);
        let e = t.lookup_or_insert(key).unwrap();
        let (gen, len, nparts) = (1u32, 4096usize, 2usize);
        // Visit 0: no history yet → static.
        assert_eq!(e.visit(0, gen), 0);
        assert!(e.boundaries(gen, 0, len, nparts).is_none());
        // Only rank 0 recorded → visit 1 still static (incomplete bank).
        e.record(0, gen, 0, 1_000_000, 2048);
        assert!(e.boundaries(gen, 1, len, nparts).is_none());
        // Both recorded → visit 1 re-splits.
        e.record(1, gen, 0, 3_000_000, 2048);
        assert_eq!(e.visit(0, gen), 1);
        let b = e.boundaries(gen, 1, len, nparts).expect("complete history re-splits");
        assert!(tiles(&b, len));
        assert!(b[1] > len / 2, "faster rank 0 gets the larger share: {b:?}");
        // A generation bump (team healed / history reset) invalidates
        // everything at once: visits rebase to 0 and stamps mismatch.
        let gen2 = gen + 1;
        assert_eq!(e.visit(0, gen2), 0);
        assert!(e.boundaries(gen2, 1, len, nparts).is_none());
    }
}
