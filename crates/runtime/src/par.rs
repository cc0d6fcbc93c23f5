//! The per-rank view of a parallel region: [`Par`] (rank, static
//! partition, scheduled loops) and the team's [`Barrier`].
//!
//! The barrier is sense-reversing: arrival is one `fetch_add`; the last
//! rank resets the count, advances an atomic generation word and opens
//! the barrier's futex gate. Waiting ranks spin on the word (within the
//! team's budget) and then sleep on the gate; [`crate::wait`] argues why
//! no wake is lost.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use npb_core::trace::{SpanKind, TraceSession};

use crate::error::BarrierPoisoned;
use crate::exchange::{Exchange, REDUCE_SLOTS};
use crate::partition;
use crate::sched::{self, OrderedSplit, Sched};
use crate::team::Inner;
use crate::wait::Gate;

/// The team barrier's shared words (see the module docs for the
/// protocol). One per team, reused by every crossing of every region.
pub(crate) struct Barrier {
    /// Generation word: advanced by the last arriver of each crossing
    /// (the sense-reversal); waiters spin on it changing.
    gen: AtomicU64,
    /// Arrivals in the current crossing.
    count: AtomicUsize,
    /// Set when any worker's body unwinds; waiters unwind instead of
    /// blocking for a sibling that will never arrive.
    poisoned: AtomicBool,
    /// Waiters sleep here; the last arriver and `poison` open it.
    gate: Gate,
}

impl Barrier {
    pub(crate) fn new() -> Barrier {
        Barrier {
            gen: AtomicU64::new(0),
            count: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            gate: Gate::new(),
        }
    }

    /// Clear the arrival count and the poison flag for a new region.
    /// Master-only, between regions: no worker is active, so the reset
    /// is race-free.
    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.poisoned.store(false, Ordering::Relaxed);
    }

    /// Poison the barrier and release every waiter, spinning or asleep.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.gate.open();
    }
}

/// Per-thread context inside a parallel region (or the serial stand-in).
///
/// `team == None` is the pure serial path: one implicit thread, no-op
/// barriers — the "Serial" column of the paper's tables.
///
/// Neither `Copy` nor `Clone`: the view carries this rank's count of
/// [`Exchange::all_sum`] calls, which must stay one per rank.
pub struct Par<'t> {
    tid: usize,
    n: usize,
    team: Option<&'t Inner>,
    /// Trace session captured once per region by the master (None when
    /// tracing is off): barrier waits record their spin/park split on
    /// this rank's lane through it.
    trace: Option<&'t TraceSession>,
    /// Reductions this rank has made in the region; its parity picks
    /// the reduction slot (see [`Exchange::all_sum`]).
    reductions: Cell<usize>,
}

impl<'t> Par<'t> {
    /// Serial context: rank 0 of 1, barriers are no-ops.
    pub fn serial() -> Par<'static> {
        Par { tid: 0, n: 1, team: None, trace: None, reductions: Cell::new(0) }
    }

    /// Rank `tid`'s context for one region of `team`.
    pub(crate) fn on_team(tid: usize, team: &'t Inner, trace: Option<&'t TraceSession>) -> Self {
        Par { tid, n: team.n, team: Some(team), trace, reductions: Cell::new(0) }
    }

    /// This thread's rank within the team.
    #[inline(always)]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Number of threads in the region.
    #[inline(always)]
    pub fn num_threads(&self) -> usize {
        self.n
    }

    /// Static block partition of `0..len` for this rank.
    #[inline]
    pub fn range(&self, len: usize) -> Range<usize> {
        partition(len, self.n, self.tid)
    }

    /// Static block partition of `lo..hi` for this rank.
    #[inline]
    pub fn range_of(&self, lo: usize, hi: usize) -> Range<usize> {
        let r = self.range(hi - lo);
        lo + r.start..lo + r.end
    }

    /// The loop scheduling policy in effect ([`Sched::Static`] on the
    /// serial path).
    #[inline]
    pub fn sched(&self) -> Sched {
        self.team.map_or(Sched::Static, |inner| inner.sched_policy())
    }

    /// Run `body` over contiguous chunks of `0..len` under the team's
    /// scheduling policy. This is the scheduled counterpart of
    /// `for i in par.range(len)` for loops whose iterations are
    /// independent of which rank runs them: elementwise updates,
    /// disjoint writes, and exact (integer) accumulations.
    ///
    /// * [`Sched::Static`] — exactly one `body` call with this rank's
    ///   [`Par::range`]: bit-for-bit and barrier-for-barrier the seed
    ///   model (no clock reads, no extra synchronization).
    /// * [`Sched::Guided`] — this rank claims decaying chunks from the
    ///   shared work counter until the loop drains.
    /// * [`Sched::Feedback`] — one `body` call with a contiguous share
    ///   re-split from last visit's per-rank timings (static until a
    ///   complete, trustworthy history exists).
    ///
    /// Under either dynamic policy the call ends at a [`Par::barrier`]:
    /// dynamic assignment breaks the owner-computes alignment that lets
    /// static phases read their own slice without synchronizing, so the
    /// rendezvous is part of the policy's cost (and is what makes claim
    /// ring slots and timing banks reusable).
    ///
    /// **Not** for order-sensitive work: a floating-point reduction
    /// grouped by claimed chunks is a different rounding — keep those on
    /// [`Par::range`] + rank-ordered [`crate::Partials`].
    #[track_caller]
    pub fn for_chunks<F: FnMut(Range<usize>)>(&self, len: usize, mut body: F) {
        let Some(inner) = self.team else {
            body(0..len);
            return;
        };
        match inner.sched_policy() {
            Sched::Static => body(self.range(len)),
            Sched::Guided => self.guided_chunks(inner, len, &mut body),
            Sched::Feedback => {
                let site = std::panic::Location::caller();
                self.feedback_chunk(inner, len, site, &mut body);
            }
        }
    }

    /// [`Par::for_chunks`] over `lo..hi` instead of `0..len` — the
    /// interior-point loops (`1..n-1`) of the grid benchmarks.
    #[track_caller]
    pub fn for_chunks_in<F: FnMut(Range<usize>)>(&self, lo: usize, hi: usize, mut body: F) {
        self.for_chunks(hi.saturating_sub(lo), |r| body(r.start + lo..r.end + lo));
    }

    /// Guided self-scheduling: claim exponentially decaying chunks from
    /// this invocation's ring slot until the counter drains.
    fn guided_chunks(&self, inner: &Inner, len: usize, body: &mut dyn FnMut(Range<usize>)) {
        assert!(len < u32::MAX as usize, "guided extent overflows the claim word");
        // Which scheduled-loop invocation this is (per-rank counters,
        // equal across ranks by SPMD + the dispatch reset); its low bits
        // pick the ring slot, its generation tag invalidates leftovers.
        let seq = inner.sched_seq[self.tid].fetch_add(1, Ordering::Relaxed);
        let slot = &inner.sched_ring[(seq as usize) % sched::GUIDED_RING];
        let gen = seq as u32;
        let tr = self.trace.map(|s| (s, s.current_region()));
        loop {
            let t0 = tr.map(|(s, _)| s.now());
            let mut cur = slot.load(Ordering::Acquire);
            let claimed = loop {
                let pos = match sched::unpack_claim(cur) {
                    (g, p) if g == gen => p as usize,
                    // Reset sentinel or a stale invocation: starts at 0.
                    _ => 0,
                };
                if pos >= len {
                    break None;
                }
                let chunk = sched::guided_chunk(len - pos, self.n);
                let next = sched::pack_claim(gen, (pos + chunk) as u32);
                match slot.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => break Some(pos..pos + chunk),
                    Err(now) => cur = now,
                }
            };
            if let (Some((s, region)), Some(t0)) = (tr, t0) {
                // SAFETY: this thread is rank `tid`, sole writer of its
                // own lane.
                unsafe { s.record(self.tid, region, SpanKind::Sched, t0, s.now()) };
            }
            match claimed {
                Some(r) => body(r),
                None => break,
            }
        }
        self.barrier();
    }

    /// Feedback partitioning: one contiguous share per rank, re-split
    /// from last visit's recorded per-rank compute times.
    fn feedback_chunk(
        &self,
        inner: &Inner,
        len: usize,
        site: &'static std::panic::Location<'static>,
        body: &mut dyn FnMut(Range<usize>),
    ) {
        // Keep the invocation counter moving so a mid-region policy mix
        // of guided and feedback loops stays slot-consistent.
        inner.sched_seq[self.tid].fetch_add(1, Ordering::Relaxed);
        let entry = (len <= sched::FEEDBACK_MAX_LEN && self.n <= sched::FEEDBACK_MAX_RANKS)
            .then(|| inner.sched_table.lookup_or_insert(sched::site_key(site, len)))
            .flatten();
        let tr = self.trace.map(|s| (s, s.current_region()));
        let t_sched = tr.map(|(s, _)| s.now());
        let gen = inner.sched_gen.load(Ordering::Relaxed) as u32;
        let (range, rec) = match entry {
            None => (self.range(len), None),
            Some(e) => {
                let k = e.visit(self.tid, gen);
                let range = match e.boundaries(gen, k, len, self.n) {
                    Some(b) => {
                        if self.tid == 0 {
                            if let Some((s, region)) = tr {
                                s.note_sched(region, site.file(), site.line(), len, &b);
                            }
                        }
                        b[self.tid]..b[self.tid + 1]
                    }
                    // Incomplete / stale / noisy history: static split.
                    None => self.range(len),
                };
                (range, Some((e, k)))
            }
        };
        if let (Some((s, region)), Some(t0)) = (tr, t_sched) {
            // SAFETY: rank-owned lane.
            unsafe { s.record(self.tid, region, SpanKind::Sched, t0, s.now()) };
        }
        match rec {
            None => body(range),
            Some((e, k)) => {
                let t0 = Instant::now();
                let assigned = range.len();
                body(range);
                let dt = t0.elapsed().as_nanos() as u64;
                e.record(self.tid, gen, k, dt, assigned);
            }
        }
        self.barrier();
    }

    /// A contiguous *ordered* share of `lo..hi`, re-splittable by the
    /// [`Sched::Feedback`] policy — for loops that need rank `r`'s block
    /// to precede rank `r+1`'s (LU's pipelined wavefront sweeps), where
    /// guided chunk claiming would scramble the pipeline, but any
    /// contiguous ordered re-split is as bitwise-correct as the static
    /// one. Static and guided policies yield exactly [`Par::range_of`].
    ///
    /// Pair with [`Par::ordered_finish`], reporting the *busy*
    /// nanoseconds (compute only, excluding pipeline waits — charging
    /// waits to the history would steer the re-split the wrong way).
    #[track_caller]
    pub fn ordered_split(&self, lo: usize, hi: usize) -> OrderedSplit<'t> {
        let len = hi - lo;
        let Some(inner) = self.team else {
            return OrderedSplit { range: lo..hi, rec: None };
        };
        if inner.sched_policy() != Sched::Feedback
            || len > sched::FEEDBACK_MAX_LEN
            || self.n > sched::FEEDBACK_MAX_RANKS
        {
            return OrderedSplit { range: self.range_of(lo, hi), rec: None };
        }
        let site = std::panic::Location::caller();
        let Some(entry) = inner.sched_table.lookup_or_insert(sched::site_key(site, len)) else {
            return OrderedSplit { range: self.range_of(lo, hi), rec: None };
        };
        let tr = self.trace.map(|s| (s, s.current_region()));
        let t_sched = tr.map(|(s, _)| s.now());
        let gen = inner.sched_gen.load(Ordering::Relaxed) as u32;
        let k = entry.visit(self.tid, gen);
        let range = match entry.boundaries(gen, k, len, self.n) {
            Some(b) => {
                if self.tid == 0 {
                    if let Some((s, region)) = tr {
                        s.note_sched(region, site.file(), site.line(), len, &b);
                    }
                }
                lo + b[self.tid]..lo + b[self.tid + 1]
            }
            None => self.range_of(lo, hi),
        };
        if let (Some((s, region)), Some(t0)) = (tr, t_sched) {
            // SAFETY: rank-owned lane.
            unsafe { s.record(self.tid, region, SpanKind::Sched, t0, s.now()) };
        }
        OrderedSplit { range, rec: Some((entry, gen, k)) }
    }

    /// Close an [`Par::ordered_split`]: record this rank's share and
    /// busy time into the feedback history and rendezvous (so the next
    /// visit reads complete banks). A no-op — no barrier, no stores —
    /// when the split was static, so the seed's synchronization
    /// structure is untouched at `--sched static`.
    pub fn ordered_finish(&self, split: OrderedSplit<'_>, busy_ns: u64) {
        if let Some((entry, gen, k)) = split.rec {
            entry.record(self.tid, gen, k, busy_ns, split.range.len());
            self.barrier();
        }
    }

    /// Block until every thread of the region has arrived.
    ///
    /// Sense-reversing barrier: arrival is a single `fetch_add`, the last
    /// rank advances the generation word, and waiters spin on it within
    /// the team's budget before sleeping on the barrier's futex gate; a
    /// no-op on the serial path. Panic-safe: if any sibling's region body
    /// unwinds, the barrier is poisoned and every waiter — spinning or
    /// asleep — unwinds (with a [`BarrierPoisoned`] payload) instead of
    /// blocking forever on a rank that will never arrive.
    pub fn barrier(&self) {
        let Some(inner) = self.team else { return };
        if let Some(delay) = inner.take_delay_fault(self.tid) {
            std::thread::sleep(delay);
        }
        let bar = &inner.barrier;
        if bar.poisoned.load(Ordering::Acquire) {
            std::panic::panic_any(BarrierPoisoned);
        }
        // Read my generation BEFORE arriving: once the count is bumped,
        // the last rank may advance the generation at any moment.
        let gen = bar.gen.load(Ordering::Acquire);
        if bar.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset for the next crossing, then release.
            // The count reset is ordered before the generation bump, and
            // no rank can re-arrive until the bump releases it, so the
            // reset can never race a next-crossing arrival.
            bar.count.store(0, Ordering::Relaxed);
            bar.gen.store(gen.wrapping_add(1), Ordering::SeqCst);
            bar.gate.open();
            return;
        }
        // Waiter: the generation advancing means release; poison without
        // a generation advance means a sibling died mid-region.
        let probe = || {
            if bar.gen.load(Ordering::SeqCst) != gen {
                return Some(true);
            }
            bar.poisoned.load(Ordering::SeqCst).then_some(false)
        };
        // When tracing, split the wait into its spin and park parts so
        // the profile distinguishes burned-CPU waiting from parked
        // waiting (the paper's `wait()` cost). `self.trace` is None when
        // tracing is off, so the disabled path reads no clock.
        let tr = self.trace.map(|s| (s, s.current_region(), s.now()));
        let mut park_t0 = None;
        let on_park = || {
            if let Some((s, region, t0)) = tr {
                let now = s.now();
                // SAFETY: this thread is rank `tid` of the region, sole
                // writer of its own lane.
                unsafe { s.record(self.tid, region, SpanKind::BarrierSpin, t0, now) };
                park_t0 = Some(now);
            }
        };
        let ok = bar
            .gate
            .wait(inner.spin_us.load(Ordering::Relaxed), None, probe, on_park)
            .expect("a wait without a deadline returns only a value");
        if let Some((s, region, t0)) = tr {
            let (kind, t0) = match park_t0 {
                None => (SpanKind::BarrierSpin, t0),
                Some(t) => (SpanKind::BarrierPark, t),
            };
            // SAFETY: as above — rank-owned lane.
            unsafe { s.record(self.tid, region, kind, t0, s.now()) };
        }
        if !ok {
            std::panic::panic_any(BarrierPoisoned);
        }
    }

    /// True if this rank is the region's rank 0 ("master section").
    #[inline(always)]
    pub fn is_root(&self) -> bool {
        self.tid == 0
    }
}

/// The threads backend's [`Exchange`]: the team's barrier, its
/// scheduled loops, and reductions in the team's [`Partials`] bank
/// (`Inner::reduce`). The serial context is a width-1 exchange.
///
/// [`Partials`]: crate::Partials
impl Exchange for Par<'_> {
    fn rank(&self) -> usize {
        self.tid
    }

    fn width(&self) -> usize {
        self.n
    }

    #[track_caller]
    fn for_chunks<F: FnMut(Range<usize>)>(&self, len: usize, body: F) {
        Par::for_chunks(self, len, body)
    }

    fn barrier(&self) {
        Par::barrier(self)
    }

    fn all_sum(&self, v: f64) -> f64 {
        let Some(inner) = self.team else {
            return std::iter::once(v).sum();
        };
        let k = self.reductions.replace(self.reductions.get() + 1);
        let partials = &inner.reduce[k % REDUCE_SLOTS];
        partials.set(self.tid, v);
        Par::barrier(self);
        partials.sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::lock;
    use crate::team::tests::{for_both_modes, TRACE_TESTS};
    use crate::{RegionError, SharedMut, Team};
    use npb_core::trace;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn serial_context() {
        let p = Par::serial();
        assert_eq!(p.tid(), 0);
        assert_eq!(p.num_threads(), 1);
        assert_eq!(p.range(10), 0..10);
        p.barrier(); // no-op
        assert!(p.is_root());
    }

    #[test]
    fn barrier_separates_phases() {
        for_both_modes(4, |team| {
            let n = 64;
            let mut a = vec![0usize; n];
            let mut b = vec![0usize; n];
            // SAFETY: each phase writes only the rank's own `p.range`; the
            // barrier orders the reads of `a` after every write to it.
            let sa = unsafe { SharedMut::new(&mut a) };
            let sb = unsafe { SharedMut::new(&mut b) };
            team.exec(|p| {
                for i in p.range(n) {
                    sa.set::<true>(i, i + 1);
                }
                p.barrier();
                // Reverse-reads the other threads' writes; only correct if
                // the barrier is a real barrier.
                for i in p.range(n) {
                    sb.set::<true>(i, sa.get::<true>(n - 1 - i));
                }
            });
            drop(sa);
            drop(sb);
            for i in 0..n {
                assert_eq!(b[i], n - i);
            }
        });
    }

    #[test]
    fn panic_mid_barrier_releases_spinning_and_parked_waiters() {
        // One rank dies before the barrier while its siblings wait in it:
        // under both modes the waiters must unwind via poisoning, not
        // spin or park forever.
        for_both_modes(4, |team| {
            let err = team
                .try_exec(|p| {
                    if p.tid() == 0 {
                        panic!("die before the barrier");
                    }
                    p.barrier();
                })
                .unwrap_err();
            assert_eq!(err, RegionError::Panicked { tids: vec![0] });
            // Healed: a clean region with a real barrier still works.
            team.exec(|p| p.barrier());
        });
    }

    #[test]
    fn many_barriers_do_not_wedge() {
        for_both_modes(4, |team| {
            team.exec(|p| {
                for _ in 0..1000 {
                    p.barrier();
                }
            });
        });
    }

    /// The static split a live team hands out — `range`, `range_of` and
    /// static `for_chunks` — is exactly `partition()`, including the
    /// empty trailing blocks of `len < nparts`.
    #[test]
    fn static_ranges_through_a_team_equal_partition() {
        let mut by_width = std::collections::BTreeMap::<usize, Vec<usize>>::new();
        for (len, nparts) in crate::partition::tests::sampled_cases() {
            by_width.entry(nparts).or_default().push(len);
        }
        for (n, mut lens) in by_width {
            lens.extend([0, 1, n - 1]);
            let team = Team::new(n);
            team.set_sched(Sched::Static);
            team.exec(|p| {
                for &len in &lens {
                    let want = partition(len, n, p.tid());
                    assert_eq!(p.range(len), want, "len {len}, nparts {n}");
                    assert_eq!(p.range_of(3, 3 + len), 3 + want.start..3 + want.end);
                    let mut chunks = Vec::new();
                    p.for_chunks(len, |r| chunks.push(r));
                    assert_eq!(chunks, [want], "len {len}, nparts {n}");
                }
            });
        }
    }

    /// `all_sum` folds the ranks' partials in ascending rank order — the
    /// same bits as `Partials::sum` — on every rank, and back-to-back
    /// calls with one barrier each never let a fast rank overwrite a
    /// partial a slow rank has yet to read: every round's partials
    /// differ, so a reused slot would show in some rank's sum.
    #[test]
    fn all_sum_is_the_rank_ordered_partials_fold() {
        let vals = [0.1, 1e16, -1e16, 0.3];
        let val = |t: usize, round: usize| vals[t] * (round % 7 + 1) as f64;
        let want = |round: usize| {
            let partials = crate::Partials::new(vals.len());
            for t in 0..vals.len() {
                partials.set(t, val(t, round));
            }
            partials.sum()
        };
        let wants: Vec<u64> = (0..500).map(|round| want(round).to_bits()).collect();
        for_both_modes(vals.len(), |team| {
            let bad = AtomicUsize::new(0);
            team.exec(|p| {
                for (round, &w) in wants.iter().enumerate() {
                    if Exchange::all_sum(&p, val(p.tid(), round)).to_bits() != w {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            assert_eq!(bad.load(Ordering::Relaxed), 0, "sums that missed the rank-ordered fold");
        });
        assert_eq!(Exchange::all_sum(&Par::serial(), -0.0).to_bits(), (-0.0f64).to_bits());
    }

    /// Every scheduling policy must hand out each index exactly once per
    /// visit — the disjoint-writes contract `for_chunks` loops rely on.
    #[test]
    fn for_chunks_covers_every_index_exactly_once_under_every_policy() {
        for policy in [Sched::Static, Sched::Guided, Sched::Feedback] {
            let team = Team::new(4);
            team.set_sched(policy);
            assert_eq!(team.sched(), policy);
            let len = 10_000;
            let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let visits = 5;
            for _ in 0..visits {
                team.exec(|p| {
                    p.for_chunks(len, |r| {
                        for i in r {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                });
            }
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), visits, "index {i} under {policy:?}");
            }
        }
    }

    /// `ordered_split` must always tile `lo..hi` contiguously in rank
    /// order — under feedback too, even as re-splits move boundaries.
    #[test]
    fn ordered_split_yields_contiguous_ordered_shares() {
        for policy in [Sched::Static, Sched::Guided, Sched::Feedback] {
            let team = Team::new(4);
            team.set_sched(policy);
            let (lo, hi) = (3usize, 4099usize);
            for visit in 0..5 {
                let shares: Mutex<Vec<(usize, Range<usize>)>> = Mutex::new(Vec::new());
                team.exec(|p| {
                    let s = p.ordered_split(lo, hi);
                    lock(&shares).push((p.tid(), s.range()));
                    // Report imbalanced busy times so feedback visits
                    // after the first actually re-split.
                    p.ordered_finish(s, 1_000_000 * (1 + p.tid() as u64));
                });
                let mut shares = shares.into_inner().unwrap();
                shares.sort_by_key(|(tid, _)| *tid);
                let mut cursor = lo;
                for (tid, r) in &shares {
                    assert_eq!(r.start, cursor, "rank {tid} visit {visit} under {policy:?}");
                    assert!(r.end >= r.start);
                    cursor = r.end;
                }
                assert_eq!(cursor, hi, "visit {visit} under {policy:?}");
            }
        }
    }

    /// Feedback re-splits drift toward the reported throughputs, and an
    /// explicit history reset snaps back to the static split.
    #[test]
    fn feedback_resplits_and_reset_restores_static() {
        let team = Team::new(2);
        team.set_sched(Sched::Feedback);
        let len = 4096usize;
        let static_share = partition(len, 2, 0);
        let share0 = || {
            let r: Mutex<Range<usize>> = Mutex::new(0..0);
            team.exec(|p| {
                let s = p.ordered_split(0, len);
                if p.is_root() {
                    *lock(&r) = s.range();
                }
                // Rank 1 claims to be 4x slower than rank 0.
                p.ordered_finish(s, 2_000_000 * (1 + 3 * p.tid() as u64));
            });
            r.into_inner().unwrap()
        };
        assert_eq!(share0(), static_share, "first visit has no history");
        for _ in 0..8 {
            share0();
        }
        assert!(
            share0().len() > static_share.len(),
            "the rank reporting 4x throughput must grow its share"
        );
        let resets = team.sched_resets();
        team.reset_sched_history();
        assert_eq!(team.sched_resets(), resets + 1);
        assert_eq!(share0(), static_share, "reset discards persisted timings");
    }

    /// A panic inside a guided chunk poisons the region (siblings unwind
    /// from the trailing barrier), the team heals, the feedback history
    /// generation moves, and the next region covers the loop cleanly.
    #[test]
    fn guided_chunk_panic_poisons_then_heals() {
        let team = Team::new(4);
        team.set_sched(Sched::Guided);
        let resets = team.sched_resets();
        // Whichever rank claims the leading chunk panics inside it; the
        // others unwind from the trailing barrier instead of deadlocking.
        let victim = AtomicUsize::new(usize::MAX);
        let res = team.try_exec(|p| {
            p.for_chunks(10_000, |r| {
                if r.start == 0 {
                    victim.store(p.tid(), Ordering::SeqCst);
                    panic!("injected chunk failure");
                }
            });
        });
        match res {
            Err(RegionError::Panicked { tids }) => {
                assert_eq!(tids, vec![victim.load(Ordering::SeqCst)])
            }
            other => panic!("expected a panicked region, got {other:?}"),
        }
        assert!(team.sched_resets() > resets, "healing must invalidate timing history");
        let len = 1000;
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        team.exec(|p| {
            p.for_chunks(len, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "healed team covers");
    }

    /// The serial path runs scheduled loops inline, whole-range, under
    /// any policy name.
    #[test]
    fn serial_par_runs_scheduled_loops_inline() {
        let par = Par::serial();
        assert_eq!(par.sched(), Sched::Static);
        let mut seen = Vec::new();
        par.for_chunks(7, |r| seen.push(r));
        assert_eq!(seen, vec![0..7]);
        let s = par.ordered_split(2, 9);
        assert_eq!(s.range(), 2..9);
        par.ordered_finish(s, 123);
    }

    /// Scheduled loops record `sched` spans and the chosen-boundary dump
    /// lands in the profile once a feedback re-split is applied.
    #[test]
    fn sched_spans_and_boundary_notes_reach_the_trace() {
        let _g = lock(&TRACE_TESTS);
        let session = TraceSession::new(2);
        trace::install(Arc::clone(&session));
        let team = Team::new(2);
        team.set_trace(Some(Arc::clone(&session)));
        team.set_sched(Sched::Feedback);
        for _ in 0..4 {
            let _scope = trace::scope("sched_region");
            team.exec(|p| {
                p.for_chunks(4096, |r| {
                    // Heavy enough to clear the noise floor on rank 1.
                    let spin = 50_000 * (1 + p.tid() as u64);
                    for _ in 0..spin {
                        std::hint::black_box(r.start);
                    }
                });
            });
        }
        team.set_trace(None);
        trace::uninstall();
        let spans = session.spans();
        assert!(
            spans.iter().any(|(_, s)| s.kind == SpanKind::Sched),
            "feedback decisions must be attributed as sched spans"
        );
        let profile = session.render_json_profile(false);
        assert!(profile.contains("\"sched\":["), "profile carries the sched array: {profile}");
        assert!(profile.contains("\"sched_secs\":"), "{profile}");
    }
}
